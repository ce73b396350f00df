#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workloads/runner.hpp"
#include "cluster/cluster.hpp"
#include "common/location.hpp"
#include "common/units.hpp"
#include "core/record.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/run_result.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

/// One frame row per result, in order.
RecordFrame frame_of(const Cluster& c,
                     const std::vector<GpuRunResult>& results) {
  RecordFrame frame;
  for (const auto& r : results) frame.append_row(to_record(c, r));
  return frame;
}

TEST(Export, ResultsCsvHasHeaderAndRows) {
  Cluster c(cloudlab_spec());
  auto w = sgemm_workload(8192, 2);
  auto opts = RunOptions::for_sku(c.sku());
  std::vector<GpuRunResult> results;
  results.push_back(run_on_gpu(c, 0, w, 0, opts));
  results.push_back(run_on_gpu(c, 1, w, 0, opts));

  std::ostringstream out;
  export_frame_csv(out, c.name(), frame_of(c, results));
  const std::string text = out.str();

  // Header plus one line per result.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("cluster,gpu,node"), std::string::npos);
  EXPECT_NE(text.find("cloudlab"), std::string::npos);
  EXPECT_NE(text.find(c.gpu(0).loc.name), std::string::npos);
}

TEST(Export, ResultsCsvRoundTripsPerf) {
  Cluster c(cloudlab_spec());
  auto w = sgemm_workload(8192, 2);
  auto opts = RunOptions::for_sku(c.sku());
  const auto r = run_on_gpu(c, 0, w, 0, opts);
  std::ostringstream out;
  export_frame_csv(out, c.name(), frame_of(c, {r}));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", r.perf_ms);
  EXPECT_NE(out.str().find(buf), std::string::npos);
}

TEST(Export, SeriesCsv) {
  TimeSeries series;
  series.push(Sample{Seconds{0.0}, MegaHertz{1400.0}, Watts{290.0}, Celsius{60.0}});
  series.push(Sample{Seconds{0.001}, MegaHertz{1395.0}, Watts{295.0}, Celsius{61.0}});
  std::ostringstream out;
  export_series_csv(out, series);
  const std::string text = out.str();
  EXPECT_NE(text.find("t_s,freq_mhz,power_w,temp_c"), std::string::npos);
  EXPECT_NE(text.find("1400"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Export, ImportRoundTripsExport) {
  Cluster c(cloudlab_spec());
  auto w = sgemm_workload(8192, 2);
  auto opts = RunOptions::for_sku(c.sku());
  std::vector<GpuRunResult> results;
  for (std::size_t g = 0; g < 4; ++g) {
    results.push_back(run_on_gpu(c, g, w, static_cast<int>(g), opts));
  }
  std::ostringstream out;
  export_frame_csv(out, c.name(), frame_of(c, results));
  std::istringstream in(out.str());
  const auto frame = import_results_frame(in);
  ASSERT_EQ(frame.size(), 4u);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame.loc(i).name, c.gpu(results[i].gpu_index).loc.name);
    EXPECT_NEAR(frame.perf_ms()[i], results[i].perf_ms,
                1e-8 * results[i].perf_ms);
    EXPECT_NEAR(frame.power_w()[i], results[i].telemetry.power.median,
                1e-6);
    EXPECT_EQ(frame.run_index(i), static_cast<int>(i));
    EXPECT_NEAR(frame.fu_util()[i], 10.0, 1e-9);
  }
  // Distinct GPUs keep distinct synthesized indices.
  EXPECT_NE(frame.gpu_index(0), frame.gpu_index(1));
}

TEST(Export, ImportReadsLegacyResultsSchema) {
  // A results CSV as collected on real hardware: the legacy per-run
  // columns only (min/max/energy populated, no trailing frame columns).
  std::istringstream in(
      "cluster,gpu,node,cabinet,run,perf_ms,"
      "freq_mhz_median,freq_mhz_min,freq_mhz_max,"
      "power_w_median,power_w_min,power_w_max,"
      "temp_c_median,temp_c_min,temp_c_max,energy_j,"
      "fu_util,dram_util,mem_stall_frac,exec_stall_frac\n"
      "longhorn,c001-001-gpu0,0,1,0,2551.5,1372,1300,1400,298.25,250,300,"
      "52.5,40,61,761.5,9.5,1.5,0.125,0.25\n"
      "longhorn,c002-003-gpu1,5,2,3,2600.75,1350,1290,1390,297,245,299,"
      "60,45,70,772,9,2.5,0.5,0.375\n");
  const auto frame = import_results_frame(in);
  ASSERT_EQ(frame.size(), 2u);

  EXPECT_EQ(frame.loc(0).name, "c001-001-gpu0");
  EXPECT_EQ(frame.loc(0).node, 0);
  EXPECT_EQ(frame.loc(0).cabinet, 1);
  EXPECT_EQ(frame.run_index(0), 0);
  EXPECT_EQ(frame.perf_ms()[0], 2551.5);
  // The medians are the frame's values; min/max/energy are not kept.
  EXPECT_EQ(frame.freq_mhz()[0], 1372.0);
  EXPECT_EQ(frame.power_w()[0], 298.25);
  EXPECT_EQ(frame.temp_c()[0], 52.5);
  EXPECT_EQ(frame.fu_util()[0], 9.5);
  EXPECT_EQ(frame.dram_util()[0], 1.5);
  EXPECT_EQ(frame.mem_stall_frac()[0], 0.125);
  EXPECT_EQ(frame.exec_stall_frac()[0], 0.25);

  EXPECT_EQ(frame.loc(1).name, "c002-003-gpu1");
  EXPECT_EQ(frame.loc(1).node, 5);
  EXPECT_EQ(frame.loc(1).cabinet, 2);
  EXPECT_EQ(frame.run_index(1), 3);
  EXPECT_EQ(frame.perf_ms()[1], 2600.75);

  // Without the trailing columns rows are untagged and the location
  // keeps its defaults beyond name/node/cabinet.
  const GpuLocation defaults;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame.day_of_week(i), -1);
    EXPECT_EQ(frame.loc(i).gpu, defaults.gpu);
    EXPECT_EQ(frame.loc(i).row, defaults.row);
    EXPECT_EQ(frame.loc(i).column, defaults.column);
    EXPECT_EQ(frame.loc(i).node_in_group, defaults.node_in_group);
  }
  EXPECT_NE(frame.gpu_index(0), frame.gpu_index(1));
}

TEST(Export, ImportReadsRequiredColumnsOnly) {
  // The counter columns are optional; absent, they read as zero.
  std::istringstream in(
      "gpu,node,cabinet,run,perf_ms,freq_mhz_median,power_w_median,"
      "temp_c_median\n"
      "n0-gpu0,0,0,2,100.5,1400,250,55\n");
  const auto frame = import_results_frame(in);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_EQ(frame.loc(0).name, "n0-gpu0");
  EXPECT_EQ(frame.run_index(0), 2);
  EXPECT_EQ(frame.perf_ms()[0], 100.5);
  EXPECT_EQ(frame.power_w()[0], 250.0);
  EXPECT_EQ(frame.fu_util()[0], 0.0);
  EXPECT_EQ(frame.exec_stall_frac()[0], 0.0);
}

TEST(Export, ImportRejectsMissingColumns) {
  std::istringstream in("gpu,node\nfoo,1\n");
  EXPECT_THROW(import_results_frame(in), std::invalid_argument);
}

TEST(Export, EmptySeriesJustHeader) {
  TimeSeries series;
  std::ostringstream out;
  export_series_csv(out, series);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

}  // namespace
}  // namespace gpuvar
