#include "core/cli.hpp"
#include "gpu/sku.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_paths.hpp"

namespace gpuvar::cli {
namespace {

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int rc = run_cli(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("cli");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ / "results.csv";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A file name inside this test's private scratch directory.
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  std::filesystem::path csv_path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_F(CliTest, NoArgsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, ListsClustersAndWorkloads) {
  std::string out;
  EXPECT_EQ(run({"clusters"}, &out), 0);
  EXPECT_NE(out.find("longhorn"), std::string::npos);
  EXPECT_NE(out.find("summit"), std::string::npos);
  EXPECT_EQ(run({"workloads"}, &out), 0);
  EXPECT_NE(out.find("pagerank"), std::string::npos);
}

TEST_F(CliTest, FactoriesRejectUnknownNames) {
  EXPECT_THROW(cluster_by_name("nope"), std::invalid_argument);
  EXPECT_THROW(workload_by_name("nope"), std::invalid_argument);
  EXPECT_EQ(cluster_by_name("corona").sku.vendor, Vendor::kAmd);
  EXPECT_EQ(workload_by_name("bert", 7).iterations, 7);
  EXPECT_EQ(workload_by_name("bert").iterations, 250);
}

TEST_F(CliTest, RunAnalyzeFlagProjectPipeline) {
  std::string out;
  EXPECT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                 "--reps", "5", "--runs", "2", "--out", csv_path_.string()},
                &out),
            0);
  EXPECT_NE(out.find("variability"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(csv_path_));

  EXPECT_EQ(run({"analyze", csv_path_.string()}, &out), 0);
  EXPECT_NE(out.find("correlations"), std::string::npos);
  EXPECT_NE(out.find("performance by cabinet"), std::string::npos);

  EXPECT_EQ(run({"flag", csv_path_.string(), "--slowdown-temp", "87"}, &out),
            0);
  EXPECT_NE(out.find("early-warning"), std::string::npos);

  EXPECT_EQ(
      run({"project", csv_path_.string(), "--target", "27648"}, &out), 0);
  EXPECT_NE(out.find("projected variation at 27648"), std::string::npos);
}

TEST_F(CliTest, ReportCompareDriftPipeline) {
  std::string out;
  ASSERT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                 "--reps", "4", "--runs", "3", "--out", csv_path_.string()},
                &out),
            0);

  EXPECT_EQ(run({"report", csv_path_.string(), "--title", "My campaign",
                 "--slowdown-temp", "87"},
                &out),
            0);
  EXPECT_NE(out.find("# My campaign"), std::string::npos);
  EXPECT_NE(out.find("## Variability"), std::string::npos);

  // Compare a campaign against itself: no significant changes.
  EXPECT_EQ(run({"compare", csv_path_.string(), csv_path_.string()}, &out),
            0);
  EXPECT_NE(out.find("no significant per-GPU changes"), std::string::npos);

  EXPECT_EQ(run({"drift", csv_path_.string()}, &out), 0);
  EXPECT_NE(out.find("no drift detected"), std::string::npos);
}

TEST_F(CliTest, DriftWithoutHistoryFailsGracefully) {
  std::string out;
  ASSERT_EQ(run({"run", "--cluster", "cloudlab", "--workload", "sgemm",
                 "--reps", "3", "--runs", "1", "--out", csv_path_.string()},
                &out),
            0);
  std::string err;
  EXPECT_EQ(run({"drift", csv_path_.string()}, nullptr, &err), 1);
  EXPECT_NE(err.find("history"), std::string::npos);
}

TEST_F(CliTest, AnalyzeMissingFileFailsGracefully) {
  std::string err;
  EXPECT_EQ(run({"analyze", "/nonexistent/x.csv"}, nullptr, &err), 1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST_F(CliTest, ProjectRequiresTarget) {
  std::string out;
  EXPECT_EQ(run({"run", "--cluster", "cloudlab", "--workload",
                 "pagerank", "--reps", "4", "--out", csv_path_.string()},
                &out),
            0);
  std::string err;
  EXPECT_EQ(run({"project", csv_path_.string()}, nullptr, &err), 1);
}

TEST_F(CliTest, MissingOptionValueFails) {
  std::string err;
  EXPECT_EQ(run({"run", "--cluster"}, nullptr, &err), 1);
  EXPECT_NE(err.find("missing value"), std::string::npos);
}

// Byte-budget grammar and overflow tests live in test_bytesize.cpp,
// next to the shared parse_byte_size every budget flag routes through.

TEST_F(CliTest, RunSwitchesToAmdGemmOnCorona) {
  // Running SGEMM on corona must pick the 24576 AMD input size without
  // the caller knowing about it. We verify via a tiny coverage run.
  std::string out;
  EXPECT_EQ(run({"run", "--cluster", "corona", "--workload", "sgemm",
                 "--reps", "3", "--runs", "1", "--coverage", "0.05"},
                &out),
            0);
  EXPECT_NE(out.find("campaign: sgemm on corona"), std::string::npos);
}

// ---- run: flag validation at the CLI boundary -------------------------
// Each bad value is refused with a message naming the flag and the
// value, before the campaign banner prints (no work starts).

void expect_refused(const std::vector<std::string>& args,
                    const std::string& flag, const std::string& value) {
  std::string out, err;
  EXPECT_EQ(run(args, &out, &err), 1);
  EXPECT_NE(err.find(flag), std::string::npos) << err;
  EXPECT_NE(err.find("'" + value + "'"), std::string::npos) << err;
  EXPECT_EQ(err.find("precondition failed"), std::string::npos) << err;
  EXPECT_EQ(out.find("campaign:"), std::string::npos) << out;
}

TEST_F(CliTest, RunRejectsRunsBelowOne) {
  expect_refused({"run", "--runs", "0"}, "--runs", "0");
  expect_refused({"run", "--runs", "-3"}, "--runs", "-3");
  expect_refused({"run", "--runs", "1.5"}, "--runs", "1.5");
}

TEST_F(CliTest, RunRejectsCoverageOutsideUnitInterval) {
  expect_refused({"run", "--coverage", "2"}, "--coverage", "2");
  expect_refused({"run", "--coverage", "-0.1"}, "--coverage", "-0.1");
  expect_refused({"run", "--coverage", "nan"}, "--coverage", "nan");
}

TEST_F(CliTest, RunRejectsRepsBelowOne) {
  expect_refused({"run", "--reps", "-5"}, "--reps", "-5");
  expect_refused({"run", "--reps", "0"}, "--reps", "0");
}

TEST_F(CliTest, RunRejectsNonPositivePowerLimit) {
  expect_refused({"run", "--power-limit", "-10"}, "--power-limit", "-10");
  expect_refused({"run", "--power-limit", "0"}, "--power-limit", "0");
  // The sweep sets each job's cap; a global cap would be overwritten.
  std::string out, err;
  EXPECT_EQ(run({"run", "--power-limit", "200", "--sweep", "power",
                 "--power-caps", "150,250"},
                &out, &err),
            1);
  EXPECT_NE(err.find("--power-limit '200'"), std::string::npos) << err;
  EXPECT_NE(err.find("--sweep power"), std::string::npos) << err;
  EXPECT_EQ(out.find("sweep:"), std::string::npos) << out;
}

TEST_F(CliTest, RunRejectsPowerCapsWithoutPowerSweep) {
  // A cap list outside a power sweep would be silently dropped.
  expect_refused({"run", "--power-caps", "150,250"}, "--power-caps",
                 "150,250");
  expect_refused({"run", "--sweep", "day", "--power-caps", "200"},
                 "--power-caps", "200");
}

TEST_F(CliTest, RunRejectsNonPositivePowerCaps) {
  for (const char* bad : {"-5", "0", "abc", ""}) {
    const std::string caps = std::string("150,") + bad;
    std::string out, err;
    EXPECT_EQ(run({"run", "--sweep", "power", "--power-caps", caps}, &out,
                  &err),
              1)
        << caps;
    EXPECT_NE(err.find("--power-caps"), std::string::npos) << err;
    EXPECT_NE(err.find("'" + std::string(bad) + "'"), std::string::npos)
        << err;
    EXPECT_EQ(err.find("precondition failed"), std::string::npos) << err;
    EXPECT_EQ(out.find("sweep:"), std::string::npos) << out;
  }
  std::string out, err;
  EXPECT_EQ(run({"run", "--sweep", "power"}, &out, &err), 1);
  EXPECT_NE(err.find("--power-caps"), std::string::npos) << err;
  EXPECT_EQ(err.find("precondition failed"), std::string::npos) << err;
}

TEST_F(CliTest, QueryRejectsBadWhereWithoutInternalError) {
  // The predicate is parsed before the store is opened, so a missing
  // directory does not mask the --where message.
  const std::string dir = path("no-store");
  for (const auto& [where, want] :
       std::vector<std::pair<std::string, std::string>>{
           {"bogus=1", "unknown --where field 'bogus'"},
           {"node", "bad --where term 'node'"},
           {"node=x..3", "bad --where range 'x..3'"}}) {
    std::string err;
    EXPECT_EQ(run({"query", dir, "--where", where}, nullptr, &err), 1)
        << where;
    EXPECT_NE(err.find(want), std::string::npos) << err;
    EXPECT_EQ(err.find("precondition failed"), std::string::npos) << err;
  }
}

// ---- run: observability and artifacts ---------------------------------

TEST_F(CliTest, RunTraceAndMetricsAreReproducible) {
  const std::vector<std::string> base = {"run", "--cluster", "cloudlab",
                                         "--reps", "3", "--runs", "2"};
  for (const char* tag : {"a", "b"}) {
    auto args = base;
    args.insert(args.end(), {"--trace", path(std::string("trace-") + tag),
                             "--metrics",
                             path(std::string("metrics-") + tag)});
    std::string out;
    ASSERT_EQ(run(args, &out), 0);
    EXPECT_NE(out.find("trace: "), std::string::npos);
    EXPECT_NE(out.find("metrics: "), std::string::npos);
  }
  const std::string trace = slurp(path("trace-a"));
  const std::string metrics = slurp(path("metrics-a"));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(metrics.find("counter experiment.node_jobs "), std::string::npos);
  EXPECT_EQ(trace, slurp(path("trace-b")));
  EXPECT_EQ(metrics, slurp(path("metrics-b")));
}

TEST_F(CliTest, RunArtifactsUnchangedByTraceAndMetrics) {
  // Observability is a side channel: the results CSV, report and
  // summary bytes must not depend on whether it was switched on.
  const auto artifacts = [&](const std::string& tag, bool observe) {
    std::vector<std::string> args = {
        "run", "--cluster", "cloudlab", "--reps", "3", "--runs", "2",
        "--out", path(tag + ".csv"), "--report", path(tag + ".md"),
        "--summary", path(tag + ".sum")};
    if (observe) {
      args.insert(args.end(), {"--trace", path(tag + ".json"), "--metrics",
                               path(tag + ".txt")});
    }
    EXPECT_EQ(run(args), 0);
    return slurp(path(tag + ".csv")) + '\0' + slurp(path(tag + ".md")) +
           '\0' + slurp(path(tag + ".sum"));
  };
  const std::string plain = artifacts("plain", false);
  const std::string observed = artifacts("observed", true);
  EXPECT_GT(plain.size(), 3u);
  EXPECT_EQ(plain, observed);
}

TEST_F(CliTest, RunCoverageZeroWritesEmptyArtifacts) {
  // An empty campaign still gets every artifact it asked for: the
  // report says there were no runs instead of failing on the empty
  // frame after the banner.
  std::string out, err;
  ASSERT_EQ(run({"run", "--cluster", "cloudlab", "--coverage", "0",
                 "--out", path("empty.csv"), "--report", path("empty.md"),
                 "--summary", path("empty.sum"), "--title", "nothing"},
                &out, &err),
            0)
      << err;
  EXPECT_EQ(slurp(path("empty.md")), "# nothing\n\n0 runs.\n");
  EXPECT_NE(slurp(path("empty.sum")).find("rows 0\n"), std::string::npos);
  EXPECT_NE(out.find("report -> "), std::string::npos) << out;
}

TEST_F(CliTest, RunCoverageOutWritesThePrintedRows) {
  // The CSV holds exactly the campaign the command reported on: the
  // sampled half of the nodes, not a re-simulation of the whole cluster.
  std::string out;
  ASSERT_EQ(run({"run", "--cluster", "longhorn", "--reps", "3", "--runs",
                 "1", "--coverage", "0.5", "--out", csv_path_.string()},
                &out),
            0);
  const std::string marker = "rows ";
  const std::size_t at = out.find(marker);
  ASSERT_NE(at, std::string::npos) << out;
  const long rows = std::stol(out.substr(at + marker.size()));
  EXPECT_GT(rows, 0);
  const std::string csv = slurp(csv_path_.string());
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), rows + 1)
      << "header plus one line per printed row";
  EXPECT_NE(out.find("wrote " + std::to_string(rows) + " rows"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace gpuvar::cli
