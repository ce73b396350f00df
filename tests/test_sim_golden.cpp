// Golden bytes for the simulator: small in-memory campaigns whose
// frame_hash (the content hash `write_campaign_summary` prints) is
// pinned to fixed values. Any change to the tick loop, the power,
// thermal or DVFS models, the sampler's quantile grid or the runner
// moves at least one of these hashes. A change meant to be a pure
// speed-up (same arithmetic on the same inputs) must leave every one
// of them as it is; a change meant to alter the model re-records them
// and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "cluster/cluster.hpp"
#include "common/binio.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "gpu/sampler.hpp"
#include "gpu/timeseries.hpp"
#include "telemetry/run_result.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace gpuvar {
namespace {

/// The frame_hash and rows lines of the campaign's summary.
std::string summary_lines(const Cluster& cluster, ExperimentConfig cfg) {
  ThreadPool pool(2);
  cfg.pool = &pool;
  const CampaignResult result = run_campaign(cluster, cfg);
  std::ostringstream summary;
  write_campaign_summary(summary, result);
  std::istringstream in(summary.str());
  std::string line, picked;
  while (std::getline(in, line)) {
    if (line.rfind("frame_hash ", 0) == 0 || line.rfind("rows ", 0) == 0) {
      picked += line + "\n";
    }
  }
  return picked;
}

std::string golden(const char* hash, int rows) {
  return "frame_hash " + std::string(hash) + "\nrows " +
         std::to_string(rows) + "\n";
}

TEST(SimGolden, LonghornSgemm) {
  const Cluster cluster(longhorn_spec());
  auto cfg = default_config(cluster, sgemm_workload(25536, 100), 2);
  cfg.node_coverage = 0.1;
  EXPECT_EQ(summary_lines(cluster, cfg), golden("ffbdb59808b2554d", 88));
}

TEST(SimGolden, CoronaResnetMultiCoarseLadder) {
  const Cluster cluster(corona_spec());
  auto cfg = default_config(cluster, resnet50_multi_workload(60), 1);
  cfg.node_coverage = 0.1;
  EXPECT_EQ(summary_lines(cluster, cfg), golden("d509e4da7f815b2e", 36));
}

TEST(SimGolden, VortexPagerank) {
  const Cluster cluster(vortex_spec());
  auto cfg = default_config(cluster, pagerank_workload(50), 2);
  cfg.node_coverage = 0.2;
  EXPECT_EQ(summary_lines(cluster, cfg), golden("a903fc9914f276", 88));
}

TEST(SimGolden, PowerCappedSummitSlice) {
  // 2 rows x 4 columns x 1 node of 6 GPUs, capped well under the
  // V100's 300 W so the controller walks the ladder all run long.
  const Cluster cluster(summit_spec(0x5077, 2, 4, 1));
  auto cfg = default_config(cluster, sgemm_workload(25536, 100), 2);
  cfg.run_options.power_limit_override = Watts{220.0};
  EXPECT_EQ(summary_lines(cluster, cfg), golden("51146235d950eb22", 96));
}

TEST(SimGolden, FullTickWithoutFastForward) {
  const Cluster cluster(longhorn_spec());
  auto cfg = default_config(cluster, sgemm_workload(25536, 30), 1);
  cfg.node_coverage = 0.05;
  cfg.run_options.sim.fast_forward = false;
  EXPECT_EQ(summary_lines(cluster, cfg), golden("fa64b15eea561690", 24));
}

TEST(SimGolden, CollectedSeriesAndTelemetry) {
  // Series collection ticks at 1 ms with fast-forward off, and stores
  // every 50 ms sample: hash the samples and the summary statistics.
  const Cluster cluster(vortex_spec());
  RunOptions opts = RunOptions::for_sku(cluster.sku());
  opts.collect_series = true;
  const GpuRunResult r =
      run_on_gpu(cluster, 5, sgemm_workload(25536, 10), 0, opts);
  std::string bytes;
  for (const Sample& s : r.series.samples()) {
    binio::append_f64(bytes, s.t.value());
    binio::append_f64(bytes, s.freq.value());
    binio::append_f64(bytes, s.power.value());
    binio::append_f64(bytes, s.temp.value());
  }
  for (const MetricSummary& m :
       {r.telemetry.freq, r.telemetry.power, r.telemetry.temp}) {
    binio::append_f64(bytes, m.median);
    binio::append_f64(bytes, m.mean);
    binio::append_f64(bytes, m.min);
    binio::append_f64(bytes, m.max);
  }
  binio::append_f64(bytes, r.telemetry.duration.value());
  binio::append_f64(bytes, r.telemetry.energy.value());
  binio::append_f64(bytes, r.perf_ms);
  EXPECT_EQ(r.series.size(), 502u);
  EXPECT_EQ(format_hex(binio::fnv1a64(bytes)), "c199d3f3bdb67a9");
}

}  // namespace
}  // namespace gpuvar
