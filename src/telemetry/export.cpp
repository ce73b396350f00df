#include "telemetry/export.hpp"

#include "common/csv.hpp"
#include "common/csv_reader.hpp"
#include "common/rng.hpp"
#include "common/require.hpp"
#include "common/location.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/record.hpp"

namespace gpuvar {

void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame) {
  CsvWriter csv(out);
  csv.header({"cluster", "gpu", "node", "cabinet", "run", "perf_ms",
              "freq_mhz_median", "freq_mhz_min", "freq_mhz_max",
              "power_w_median", "power_w_min", "power_w_max",
              "temp_c_median", "temp_c_min", "temp_c_max", "energy_j",
              "fu_util", "dram_util", "mem_stall_frac", "exec_stall_frac",
              "day_of_week", "gpu_in_node", "row_idx", "column_idx",
              "node_in_group"});
  const auto perf = frame.perf_ms();
  const auto freq = frame.freq_mhz();
  const auto power = frame.power_w();
  const auto temp = frame.temp_c();
  const auto fu = frame.fu_util();
  const auto dram = frame.dram_util();
  const auto mem_stall = frame.mem_stall_frac();
  const auto exec_stall = frame.exec_stall_frac();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const GpuLocation& loc = frame.loc(i);
    csv.add(cluster_name)
        .add(loc.name)
        .add(static_cast<long long>(loc.node))
        .add(static_cast<long long>(loc.cabinet))
        .add(static_cast<long long>(frame.run_index(i)))
        .add(perf[i])
        .add(freq[i])
        .add(freq[i])
        .add(freq[i])
        .add(power[i])
        .add(power[i])
        .add(power[i])
        .add(temp[i])
        .add(temp[i])
        .add(temp[i])
        .add(0.0)
        .add(fu[i])
        .add(dram[i])
        .add(mem_stall[i])
        .add(exec_stall[i])
        .add(static_cast<long long>(frame.day_of_week(i)))
        .add(static_cast<long long>(loc.gpu))
        .add(static_cast<long long>(loc.row))
        .add(static_cast<long long>(loc.column))
        .add(static_cast<long long>(loc.node_in_group));
    csv.end_row();
  }
}

void export_series_csv(std::ostream& out, const TimeSeries& series) {
  CsvWriter csv(out);
  csv.header({"t_s", "freq_mhz", "power_w", "temp_c"});
  for (const auto& s : series.samples()) {
    csv.add(s.t.value()).add(s.freq.value()).add(s.power.value()).add(s.temp.value());
    csv.end_row();
  }
}

RecordFrame import_results_frame(std::istream& in) {
  CsvReader csv(in);
  for (const char* col :
       {"gpu", "node", "cabinet", "run", "perf_ms", "freq_mhz_median",
        "power_w_median", "temp_c_median"}) {
    GPUVAR_REQUIRE_MSG(csv.has_column(col),
                       std::string("results CSV missing column: ") + col);
  }
  const bool has_counters = csv.has_column("fu_util");
  const bool has_day = csv.has_column("day_of_week");
  const bool has_full_loc = csv.has_column("gpu_in_node") &&
                            csv.has_column("row_idx") &&
                            csv.has_column("column_idx") &&
                            csv.has_column("node_in_group");
  RecordFrame frame;
  frame.reserve(csv.rows());
  for (std::size_t row = 0; row < csv.rows(); ++row) {
    RunRecord r;
    r.loc.name = csv.field(row, "gpu");
    r.loc.node = static_cast<int>(csv.integer(row, "node"));
    r.loc.cabinet = static_cast<int>(csv.integer(row, "cabinet"));
    if (has_full_loc) {
      r.loc.gpu = static_cast<int>(csv.integer(row, "gpu_in_node"));
      r.loc.row = static_cast<int>(csv.integer(row, "row_idx"));
      r.loc.column = static_cast<int>(csv.integer(row, "column_idx"));
      r.loc.node_in_group =
          static_cast<int>(csv.integer(row, "node_in_group"));
    }
    // Synthesize a stable per-name GPU index: (node, name hash) suffices
    // for grouping since names are unique per GPU.
    r.gpu_index = static_cast<std::size_t>(
        derive_seed(0x6B5, r.loc.name) % (1ull << 48));
    r.run_index = static_cast<int>(csv.integer(row, "run"));
    if (has_day) r.day_of_week = static_cast<int>(csv.integer(row, "day_of_week"));
    r.perf_ms = csv.number(row, "perf_ms");
    r.freq_mhz = csv.number(row, "freq_mhz_median");
    r.power_w = csv.number(row, "power_w_median");
    r.temp_c = csv.number(row, "temp_c_median");
    if (has_counters) {
      r.counters.fu_util = csv.number(row, "fu_util");
      r.counters.dram_util = csv.number(row, "dram_util");
      r.counters.mem_stall_frac = csv.number(row, "mem_stall_frac");
      r.counters.exec_stall_frac = csv.number(row, "exec_stall_frac");
    }
    frame.append_row(r);
  }
  return frame;
}

}  // namespace gpuvar
