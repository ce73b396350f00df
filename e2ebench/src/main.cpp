// End-to-end benchmark of the gpuvar pipeline: campaign -> checkpoint
// store -> query, driven in-process through the library's public API.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--workdir DIR]
//
// --trace 0 times the steps a user pays for (set-up, cold campaign,
// resume, artifacts, the query mix) in whole rounds until --seconds have
// passed, and reports medians. --trace 1 is the separate per-layer run:
// it times calls into each layer and reads the program's own counters
// through an installed obs::Registry. Either way the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every run checks its outputs against ref:: computations made apart
// from the program (reference.hpp) and against properties the design
// promises (DESIGN.md section 9: cold, resumed and in-memory campaigns
// hash alike).
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/markdown_report.hpp"
#include "core/variability.hpp"
#include "obs/metrics.hpp"
#include "query/dataset.hpp"
#include "query/source.hpp"
#include "queries.hpp"
#include "reference.hpp"
#include "telemetry/export.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/shard.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- workloads --------------------------------------------------------

// Summit's floor plan: 8 rows x 29 columns of 6-GPU nodes. The slice
// keeps 2 nodes per column (464 nodes), the fleet all 18 (4,176).
constexpr int kRows = 8;
constexpr int kColumns = 29;
constexpr int kGpusPerNode = 6;
constexpr int kRunsPerGpu = 2;
constexpr std::uint64_t kDefaultSeed = 0x5077;  // summit_spec's own seed

struct WorkloadDef {
  const char* name;
  int nodes_per_column;
  gpuvar::WorkloadSpec (*make)();
  /// Resumes and artifact writes per round. On the slice each takes tens
  /// of milliseconds, so one sample per round would be mostly host noise.
  int step_reps;
};

const WorkloadDef kWorkloads[] = {
    {"sgemm-summit", 2, +[] { return gpuvar::sgemm_workload(25536, 100); }, 5},
    {"resnet-summit", 2, +[] { return gpuvar::resnet50_multi_workload(500); },
     5},
    {"pagerank-fleet", 18, +[] { return gpuvar::pagerank_workload(50); }, 1},
};

// Set-up is repeated and reported as a median: one build of the slice
// takes milliseconds, too short to time once on a shared host. The
// end-to-end run also rebuilds a throwaway set-up each round, so the
// samples spread over the whole run rather than its first second.
constexpr int kSetupReps = 5;
// Warm query samples per round: the 18-query mix repeated until at
// least this many, so a p90 has ten samples beyond it.
constexpr std::size_t kWarmSamples = 100;
// Node-jobs timed one by one for the simulator's per-layer numbers.
constexpr int kSimSample = 8;

// --- arguments --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--workdir DIR]\nworkloads:",
               why.c_str());
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--workdir") {
        a.workdir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// --- results ----------------------------------------------------------

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: its metrics, its operation counts and
/// the outcome of its correctness checks.
struct Outcome {
  std::vector<MetricValue> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<bool, std::string>> checks;  ///< (passed, what)

  void check(bool ok, const std::string& what) { checks.emplace_back(ok, what); }
  std::size_t checks_failed() const {
    return static_cast<std::size_t>(
        std::count_if(checks.begin(), checks.end(),
                      [](const auto& c) { return !c.first; }));
  }
  /// One operation: counted as attempted, and as failed if it throws.
  template <typename F>
  void attempt(const char* what, F&& f) {
    ++attempted;
    try {
      f();
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "operation %s failed: %s\n", what, e.what());
    }
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return ref::quantile7(xs, 0.5);
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return ref::quantile7(xs, p);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<MetricValue>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

// --- set-up -----------------------------------------------------------

// One worker: the pool runs every parallel_for inline on the caller.
// Two workers (half of a 4-core host) made the query plane unmeasurable
// there: each column scan of a small store fans out to the pool, and
// the warm mix over the 464-shard slice store ran 2x slower than inline
// and swung +-40% with how fast the host woke its idle vCPUs. Raise this
// once small scans stop paying a fan-out (see CHANGES.md).
constexpr std::size_t kPoolThreads = 1;

/// What set-up builds: the cluster, the workload spec and one explicit
/// pool for the engine and the query plane (never ThreadPool::global(),
/// which takes every core of a shared host).
struct Env {
  std::unique_ptr<gpuvar::Cluster> cluster;
  std::unique_ptr<gpuvar::ThreadPool> pool;
  gpuvar::ExperimentConfig config;
};

Env build_env(const WorkloadDef& w, std::uint64_t seed, double& cluster_ms) {
  Env env;
  const auto t0 = Clock::now();
  env.cluster = std::make_unique<gpuvar::Cluster>(gpuvar::summit_spec(
      seed, kRows, kColumns, w.nodes_per_column, kGpusPerNode));
  cluster_ms = ms_since(t0);
  env.pool = std::make_unique<gpuvar::ThreadPool>(kPoolThreads);
  env.config = gpuvar::default_config(*env.cluster, w.make(), kRunsPerGpu);
  env.config.pool = env.pool.get();
  return env;
}

// --- helpers over the program's outputs --------------------------------

std::string summary_text(const gpuvar::CampaignResult& r) {
  std::ostringstream s;
  gpuvar::write_campaign_summary(s, r);
  return s.str();
}

std::string frame_hash(const gpuvar::CampaignResult& r) {
  const std::string text = summary_text(r);
  const auto at = text.find("frame_hash ");
  if (at == std::string::npos) return "";
  return text.substr(at, text.find('\n', at) - at);
}

/// Bytes the store occupies on disk (allocated blocks, not apparent
/// size: a 1.3 KB shard still takes a 4 KiB block).
double disk_bytes(const fs::path& dir) {
  double total = 0.0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    struct stat st {};
    if (::stat(e.path().c_str(), &st) == 0) {
      total += static_cast<double>(st.st_blocks) * 512.0;
    }
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

gpuvar::CampaignOptions checkpointed(const fs::path& store) {
  gpuvar::CampaignOptions o;
  o.checkpoint_dir = store.string();
  return o;
}

gpuvar::query::DatasetOptions dataset_options(gpuvar::ThreadPool* pool) {
  gpuvar::query::DatasetOptions o;
  o.pool = pool;
  return o;
}

/// Checks that need one finished campaign: counts against the topology,
/// the perf variation against the reference box, and the paper's shape.
void check_campaign(Outcome& out, const WorkloadDef& w, const Env& env,
                    const gpuvar::CampaignResult& r) {
  const auto expect = ref::expected_counts(
      kRows, kColumns, w.nodes_per_column, kGpusPerNode,
      env.config.workload.gpus_per_job, kRunsPerGpu);
  out.check(r.frame.size() == expect.rows, "row count matches the topology");
  out.check(r.gpus_measured == expect.gpus, "GPU count matches the topology");
  out.check(r.frame.gpu_count() == expect.gpus,
            "distinct GPUs in the frame match the topology");
  out.check(r.nodes_measured == expect.nodes,
            "node count matches the topology");
  out.check(r.stats.buckets_total == expect.shards,
            "node-job count matches the topology");

  const auto perf = r.frame.perf_ms();
  const auto box = ref::box(std::vector<double>(perf.begin(), perf.end()));
  const double got = gpuvar::analyze_variability(r.frame).perf.variation_pct;
  out.check(std::abs(got - box.variation_pct) <=
                1e-12 * std::abs(box.variation_pct),
            "perf variation_pct equals the reference box computation");

  char buf[160];
  const std::string name = w.name;
  if (name == "sgemm-summit") {
    std::snprintf(buf, sizeof buf,
                  "sgemm variation %.2f%% lies in the paper's ~8%% band "
                  "[5, 12]",
                  box.variation_pct);
    out.check(box.variation_pct >= 5.0 && box.variation_pct <= 12.0, buf);
  } else if (name == "pagerank-fleet") {
    std::snprintf(buf, sizeof buf, "pagerank variation %.2f%% is at most 2.5%%",
                  box.variation_pct);
    out.check(box.variation_pct <= 2.5, buf);
  } else if (name == "resnet-summit") {
    // The comparison point: sgemm on the same machine, a quarter of
    // its nodes, measured in memory outside any timed step.
    auto cfg = gpuvar::default_config(
        *env.cluster, gpuvar::sgemm_workload(25536, 100), kRunsPerGpu);
    cfg.node_coverage = 0.25;
    cfg.pool = env.config.pool;
    const auto sgemm = gpuvar::run_campaign(*env.cluster, cfg);
    const auto sp = sgemm.frame.perf_ms();
    const double sv =
        ref::box(std::vector<double>(sp.begin(), sp.end())).variation_pct;
    std::snprintf(buf, sizeof buf,
                  "resnet-multi variation %.2f%% exceeds sgemm's %.2f%%",
                  box.variation_pct, sv);
    out.check(box.variation_pct > sv, buf);
  }
}

/// Counts a query result that differs from the reference for its slot.
void check_query(const QueryResult& got, const QueryResult& want,
                 std::size_t& mismatches) {
  if (got.rows != want.rows || got.fingerprint != want.fingerprint ||
      !got.self_compare_ok) {
    ++mismatches;
  }
}

// --- the end-to-end run -----------------------------------------------

/// Whether another whole round fits in the run: stop once fewer than
/// half a mean round's time is left, so a run ends near `seconds` on
/// average instead of overshooting by most of a round.
bool another_round(Clock::time_point start, std::size_t rounds,
                   double seconds) {
  const double elapsed = ms_since(start) / 1e3;
  return elapsed + 0.5 * elapsed / static_cast<double>(rounds) < seconds;
}

/// Mean over the queries of the mix of each query's median latency.
/// Not the median of all samples pooled: the 18 queries differ by up to
/// 50x, and the pooled median falls between the 9th and 10th fastest
/// query, where a small shift jumps it from one to the other.
double mix_mean_of_medians(const std::vector<std::vector<double>>& by_query) {
  double sum = 0.0;
  for (const auto& samples : by_query) sum += median(samples);
  return sum / static_cast<double>(by_query.size());
}

/// The mix's typical p90: mix_mean_of_medians scaled by the p90 of every
/// sample's ratio to its own query's median. The ratios pool without the
/// 50x spread between queries, so the p90 lands inside one distribution
/// (with every sample of the run behind it) instead of on whichever gap
/// between two queries' latencies the pooled 90th sample falls in.
double mix_p90(const std::vector<std::vector<double>>& by_query) {
  std::vector<double> ratios;
  for (const auto& samples : by_query) {
    const double m = median(samples);
    for (double x : samples) ratios.push_back(x / m);
  }
  return mix_mean_of_medians(by_query) * percentile(ratios, 0.9);
}

void run_end_to_end(const Args& args, const WorkloadDef& w, Outcome& out) {
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    double cluster_ms = 0.0;
    const auto t0 = Clock::now();
    Env built = build_env(w, args.seed, cluster_ms);
    setup_s.push_back(ms_since(t0) / 1e3);
    return built;  // torn down by the caller, outside the timed span
  };
  Env env;
  for (int i = 0; i < kSetupReps; ++i) env = timed_setup();

  const fs::path work = fs::path(args.workdir) / w.name;
  const fs::path store = work / "store";
  const fs::path artifacts = work / "artifacts";
  fs::create_directories(artifacts);
  const int nodes = env.cluster->node_count();
  const auto preds = predicate_mix(nodes);
  const auto mix = query_mix(preds.size());
  const auto ds_opts = dataset_options(env.pool.get());

  std::vector<double> campaign_s, resume_s, artifacts_s;
  std::vector<std::vector<double>> cold_by_query(mix.size()),
      warm_by_query(mix.size());
  double store_bytes = 0.0;
  std::string first_hash;
  std::vector<QueryResult> expected;
  std::size_t mismatches = 0;
  std::size_t bad_rounds = 0;
  std::size_t rounds = 0;
  gpuvar::CampaignResult cold, resumed;

  const auto start = Clock::now();
  do {
    ++rounds;
    for (int i = 0; i < kSetupReps; ++i) timed_setup();
    fs::remove_all(store);
    out.attempt("campaign", [&] {
      const auto t0 = Clock::now();
      cold = gpuvar::run_campaign(*env.cluster, env.config,
                                  checkpointed(store));
      campaign_s.push_back(ms_since(t0) / 1e3);
    });
    store_bytes = disk_bytes(store);
    for (int i = 0; i < w.step_reps; ++i) {
      out.attempt("resume", [&] {
        const auto t0 = Clock::now();
        resumed = gpuvar::run_campaign(*env.cluster, env.config,
                                       checkpointed(store));
        resume_s.push_back(ms_since(t0) / 1e3);
      });
      bad_rounds += frame_hash(resumed) != frame_hash(cold) ||
                    resumed.stats.buckets_run != 0 ||
                    resumed.stats.buckets_restored !=
                        resumed.stats.buckets_total;
    }
    for (int i = 0; i < w.step_reps; ++i) {
      out.attempt("artifacts", [&] {
        const auto t0 = Clock::now();
        {
          std::ofstream csv(artifacts / "results.csv");
          gpuvar::export_frame_csv(csv, env.cluster->name(), resumed.frame);
        }
        {
          std::ofstream md(artifacts / "report.md");
          gpuvar::write_markdown_report(md, resumed.frame);
        }
        {
          std::ofstream summary(artifacts / "summary.txt");
          gpuvar::write_campaign_summary(summary, resumed);
        }
        artifacts_s.push_back(ms_since(t0) / 1e3);
      });
    }

    const std::string hash = frame_hash(cold);
    if (rounds == 1) {
      first_hash = hash;
      expected = expected_results(cold.frame, preds, mix);
    }
    bad_rounds += hash.empty() || hash != first_hash;

    // Cold: a fresh Dataset (empty decoded-shard cache) per query.
    for (std::size_t qi = 0; qi < mix.size(); ++qi) {
      out.attempt("cold query", [&] {
        const auto t0 = Clock::now();
        const auto ds = gpuvar::query::Dataset::open(store.string(), ds_opts);
        const double open_ms = ms_since(t0);
        const auto r = run_query(ds, preds[mix[qi].predicate],
                                 mix[qi].analysis);
        cold_by_query[qi].push_back(open_ms + r.ms);
        check_query(r, expected[qi], mismatches);
      });
    }
    // Warm: one Dataset, one untimed pass to fill its cache, then the
    // mix repeated until there are enough samples for a p90.
    out.attempt("open warm dataset", [&] {
      const auto ds = gpuvar::query::Dataset::open(store.string(), ds_opts);
      for (std::size_t qi = 0; qi < mix.size(); ++qi) {
        check_query(
            run_query(ds, preds[mix[qi].predicate], mix[qi].analysis),
            expected[qi], mismatches);
      }
      std::size_t samples = 0;
      while (samples < kWarmSamples) {
        for (std::size_t qi = 0; qi < mix.size(); ++qi, ++samples) {
          out.attempt("warm query", [&] {
            const auto r = run_query(ds, preds[mix[qi].predicate],
                                     mix[qi].analysis);
            warm_by_query[qi].push_back(r.ms);
            check_query(r, expected[qi], mismatches);
          });
        }
      }
    });
  } while (another_round(start, rounds, args.seconds));

  // Checks outside the timed rounds.
  out.check(bad_rounds == 0,
            "every round's cold and resumed campaigns hash alike, and each "
            "resume restores every bucket and simulates none (" +
                std::to_string(bad_rounds) + " mismatches)");
  out.check(mismatches == 0,
            "every query matches its reference: rows matched, analysis of "
            "frame.select, self-compare (" +
                std::to_string(mismatches) + " mismatches)");
  check_campaign(out, w, env, cold);
  const auto inmem = gpuvar::run_campaign(*env.cluster, env.config);
  out.check(frame_hash(inmem) == first_hash,
            "in-memory campaign hashes like the checkpointed one");
  std::printf("rounds %zu, pool %zu threads, %zu queries per mix\n", rounds,
              kPoolThreads, mix.size());
  out.metric("setup_s", median(setup_s), "s");
  if (!campaign_s.empty()) out.metric("campaign_s", median(campaign_s), "s");
  if (!resume_s.empty()) out.metric("resume_s", median(resume_s), "s");
  if (!artifacts_s.empty()) out.metric("artifacts_s", median(artifacts_s), "s");
  if (!cold_by_query.front().empty()) {
    out.metric("cold_query_ms", mix_mean_of_medians(cold_by_query), "ms");
  }
  if (!warm_by_query.front().empty()) {
    out.metric("query_ms", mix_mean_of_medians(warm_by_query), "ms");
    out.metric("query_p90_ms", mix_p90(warm_by_query), "ms");
  }
  out.metric("store_mb", store_bytes / 1e6, "MB");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}


// --- the traced per-layer run ------------------------------------------

/// Spans of the traced run, kept in memory and written out at exit as
/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
class SpanLog {
 public:
  /// Runs `f` inside a span named `name`, nested under the innermost
  /// open span; returns its wall time in ms.
  template <typename F>
  double time(const std::string& name, F&& f) {
    const int parent = open_.empty() ? -1 : open_.back();
    const auto t0 = Clock::now();
    spans_.push_back({name, parent, us(t0), 0.0});
    const int me = static_cast<int>(spans_.size()) - 1;
    open_.push_back(me);
    struct Close {
      SpanLog& log;
      int me;
      Clock::time_point t0;
      ~Close() {
        log.spans_[static_cast<std::size_t>(me)].dur_us =
            ms_since(t0) * 1e3;
        log.open_.pop_back();
      }
    } close{*this, me, t0};
    f();
    return ms_since(t0);
  }

  void write(const fs::path& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << json_number(s.start_us) << ", \"dur\": " << json_number(s.dur_us)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double dur_us;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Timing samples of the traced run, by metric name.
struct LayerSamples {
  std::map<std::string, std::vector<double>> times;
  std::map<std::string, std::string> units;

  void time(const std::string& name, double v, const char* unit = "ms") {
    times[name].push_back(v);
    units[name] = unit;
  }
};

void run_traced(const Args& args, const WorkloadDef& w, Outcome& out,
                SpanLog& log) {
  using gpuvar::obs::Registry;
  using gpuvar::obs::ScopedMetrics;
  LayerSamples layers;
  Env env;
  for (int i = 0; i < kSetupReps; ++i) {
    env = Env{};
    double cluster_ms = 0.0;
    log.time("setup", [&] { env = build_env(w, args.seed, cluster_ms); });
    layers.time("cluster.build_ms", cluster_ms);
  }
  const auto& cluster = *env.cluster;
  const auto& cfg = env.config;

  const fs::path work =
      fs::path(args.workdir) / (std::string(w.name) + "-trace");
  const fs::path store = work / "store";
  fs::create_directories(work);
  const auto preds = predicate_mix(cluster.node_count());
  const auto mix = query_mix(preds.size());
  const auto ds_opts = dataset_options(env.pool.get());

  // A fixed sample of node-jobs, spread over the machine.
  std::vector<int> sample_nodes;
  for (int i = 0; i < kSimSample; ++i) {
    sample_nodes.push_back((2 * i + 1) * cluster.node_count() /
                           (2 * kSimSample));
  }
  int kernels_per_iteration = 0;
  for (const auto& step : cfg.workload.iteration) {
    kernels_per_iteration += step.count;
  }

  std::map<std::string, double> first_counts;
  std::vector<QueryResult> expected;
  std::size_t passes = 0;
  const auto start = Clock::now();
  do {
    ++passes;
    std::map<std::string, double> counts;
    log.time("pass", [&] {
      // Simulator: serial node-jobs, timed with no registry installed;
      // their DVFS decisions counted in a second, instrumented pass.
      out.attempt("sim sample", [&] {
        double sample_ms = 0.0;
        for (int node : sample_nodes) {
          const double ms = log.time("sim.run_on_node", [&] {
            gpuvar::run_on_node(cluster, node, cfg.workload, 0,
                                cfg.run_options);
          });
          layers.time("sim.node_job_ms", ms);
          sample_ms += ms;
        }
        Registry reg;
        {
          ScopedMetrics scope(&reg);
          for (int node : sample_nodes) {
            gpuvar::run_on_node(cluster, node, cfg.workload, 0,
                                cfg.run_options);
          }
        }
        const auto decisions =
            static_cast<double>(reg.counter("dvfs.decisions").value());
        counts["sim.sample_decisions"] = decisions;
        layers.time("sim.ns_per_decision", sample_ms * 1e6 / decisions, "ns");
      });

      // Engine: the same cold checkpointed campaign untraced and traced
      // (the difference is the tracing overhead), then in memory.
      gpuvar::CampaignResult cold;
      double untraced_ms = 0.0;
      out.attempt("campaign", [&] {
        fs::remove_all(store);
        untraced_ms = log.time("engine.campaign", [&] {
          cold = gpuvar::run_campaign(cluster, cfg, checkpointed(store));
        });
      });
      out.attempt("traced campaign", [&] {
        fs::remove_all(store);
        Registry reg;
        double traced_ms = 0.0;
        {
          ScopedMetrics scope(&reg);
          traced_ms = log.time("engine.campaign.traced", [&] {
            cold = gpuvar::run_campaign(cluster, cfg, checkpointed(store));
          });
        }
        layers.time("obs.traced_overhead_pct",
                    (traced_ms / untraced_ms - 1.0) * 100.0, "%");
        const auto c = [&](const char* name) {
          return static_cast<double>(reg.counter(name).value());
        };
        counts["sim.kernels"] = (c("runner.iterations") +
                                 c("runner.warmup_iterations")) *
                                cfg.workload.gpus_per_job *
                                kernels_per_iteration;
        counts["sim.dvfs_decisions"] = c("dvfs.decisions");
        counts["sim.dvfs_steps"] = c("dvfs.step_ups") + c("dvfs.step_downs") +
                                   c("dvfs.thermal_throttles");
        counts["sim.rc_steps"] = c("thermal.rc_steps");
        counts["engine.shards_written"] = c("engine.shards_written");
        counts["engine.shard_bytes"] = c("engine.shard_bytes_written");
        counts["engine.resident_bytes_peak"] =
            static_cast<double>(reg.gauge("engine.resident_bytes_peak").value());
      });
      out.attempt("in-memory campaign", [&] {
        gpuvar::CampaignResult inmem;
        layers.time("engine.inmem_campaign_ms",
                    log.time("engine.campaign.inmem", [&] {
                      inmem = gpuvar::run_campaign(cluster, cfg);
                    }));
        out.check(frame_hash(inmem) == frame_hash(cold),
                  "in-memory and traced campaigns hash alike in pass " +
                      std::to_string(passes));
      });
      if (passes == 1) {
        check_campaign(out, w, env, cold);
        expected = expected_results(cold.frame, preds, mix);
      }

      // Telemetry: manifest, shard decode and re-encode, CSV export.
      out.attempt("telemetry", [&] {
        gpuvar::CampaignManifest manifest;
        layers.time("manifest.read_ms", log.time("manifest.read", [&] {
          manifest = gpuvar::read_campaign_manifest(
              store / gpuvar::kCampaignManifestName);
        }));
        std::vector<std::string> files;
        for (const auto& [bucket, entry] : manifest.entries) {
          files.push_back(
              read_file(store / gpuvar::campaign_shard_file_name(bucket)));
        }
        std::vector<gpuvar::FrameShard> shards;
        shards.reserve(files.size());
        layers.time("shard.decode_ms", log.time("shard.decode", [&] {
          for (const auto& bytes : files) {
            shards.push_back(gpuvar::parse_frame_shard(bytes, "shard"));
          }
        }));
        std::size_t same = 0;
        layers.time("shard.encode_ms", log.time("shard.encode", [&] {
          for (std::size_t i = 0; i < shards.size(); ++i) {
            same += gpuvar::serialize_frame_shard(
                        shards[i].frame, shards[i].info.bucket_index) ==
                    files[i];
          }
        }));
        out.check(same == files.size() && !files.empty(),
                  "every shard re-encodes to its file's bytes");
        const fs::path csv_path = work / "results.csv";
        layers.time("export.csv_ms", log.time("export.csv", [&] {
          std::ofstream csv(csv_path);
          gpuvar::export_frame_csv(csv, cluster.name(), cold.frame);
        }));
        layers.time("export.csv_mb",
                    static_cast<double>(fs::file_size(csv_path)) / 1e6, "MB");
      });

      // Analyses over a frame-backed Source: no query-plane work.
      for (std::size_t qi = 0; qi < mix.size(); ++qi) {
        if (mix[qi].predicate != 0) continue;
        const Analysis a = mix[qi].analysis;
        out.attempt("analysis", [&] {
          const gpuvar::query::Source src(cold.frame);
          QueryResult r;
          log.time(std::string("analysis.") + analysis_name(a),
                   [&] { r = evaluate(a, src, src); });
          layers.time(std::string("analysis.") + analysis_name(a) + "_ms", r.ms);
          out.check(r.fingerprint == expected[qi].fingerprint,
                    std::string(analysis_name(a)) +
                        " over the frame matches the reference");
        });
      }
      out.attempt("report", [&] {
        layers.time("report.ms", log.time("report", [&] {
          std::ofstream md(work / "report.md");
          gpuvar::write_markdown_report(md, cold.frame);
        }));
      });

      // Query plane: open, first assembly, materialize.
      out.attempt("query plane", [&] {
        layers.time("query.open_ms", log.time("query.open", [&] {
          gpuvar::query::Dataset::open(store.string(), ds_opts);
        }));
        const auto ds = gpuvar::query::Dataset::open(store.string(), ds_opts);
        const gpuvar::query::Source src(ds);
        layers.time("query.assemble_ms", log.time("query.assemble", [&] {
          for (auto m : {gpuvar::Metric::kPerf, gpuvar::Metric::kFreq,
                         gpuvar::Metric::kPower, gpuvar::Metric::kTemp}) {
            src.metric(m);
          }
          src.gpu_ids();
          src.run_indices();
          src.days_of_week();
        }));
        gpuvar::RecordFrame whole;
        layers.time("query.materialize_ms", log.time("query.materialize", [&] {
          whole = gpuvar::query::Dataset::open(store.string(), ds_opts)
                      .materialize();
        }));
        out.check(gpuvar::hash_frame_shard(whole, 0) ==
                      gpuvar::hash_frame_shard(cold.frame, 0),
                  "materialized store equals the campaign's frame");
      });

      // Query counters: the cold mix (a fresh Dataset per query), then
      // two passes of the mix over one Dataset (misses, then hits).
      out.attempt("query counters", [&] {
        const char* names[] = {"query.shards_scanned", "query.shards_skipped",
                               "query.cache_hits", "query.cache_misses",
                               "query.rows_matched"};
        double filtered_skipped = 0.0, filtered_considered = 0.0;
        std::size_t mismatches = 0;
        const auto tally = [&](Registry& reg) {
          for (const char* n : names) {
            counts[n] += static_cast<double>(reg.counter(n).value());
          }
        };
        for (std::size_t qi = 0; qi < mix.size(); ++qi) {
          Registry reg;
          {
            ScopedMetrics scope(&reg);
            const auto ds = gpuvar::query::Dataset::open(store.string(), ds_opts);
            const auto r = run_query(ds, preds[mix[qi].predicate],
                                     mix[qi].analysis);
            mismatches += r.fingerprint != expected[qi].fingerprint ||
                          r.rows != expected[qi].rows || !r.self_compare_ok;
          }
          tally(reg);
          if (mix[qi].predicate != 0) {
            const auto skipped =
                static_cast<double>(reg.counter("query.shards_skipped").value());
            filtered_skipped += skipped;
            filtered_considered +=
                skipped +
                static_cast<double>(reg.counter("query.shards_scanned").value());
          }
        }
        Registry reg;
        {
          ScopedMetrics scope(&reg);
          const auto ds = gpuvar::query::Dataset::open(store.string(), ds_opts);
          for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t qi = 0; qi < mix.size(); ++qi) {
              const auto r = run_query(ds, preds[mix[qi].predicate],
                                       mix[qi].analysis);
              mismatches += r.fingerprint != expected[qi].fingerprint;
            }
          }
        }
        tally(reg);
        counts["query.filtered_skip_pct"] =
            filtered_skipped / filtered_considered * 100.0;
        out.check(mismatches == 0,
                  "traced query results match the reference");
      });
    });
    if (passes == 1) {
      first_counts = counts;
    } else {
      out.check(counts == first_counts,
                "per-layer counts repeat exactly in pass " +
                    std::to_string(passes));
    }
  } while (another_round(start, passes, args.seconds));

  std::printf("passes %zu, pool %zu threads\n", passes, kPoolThreads);
  for (const auto& [name, samples] : layers.times) {
    out.metric(name, median(samples), layers.units[name]);
  }
  for (const auto& [name, value] : first_counts) {
    if (name == "sim.sample_decisions") continue;
    const bool pct = name == "query.filtered_skip_pct";
    const bool bytes = name.find("bytes") != std::string::npos;
    out.metric(name, value, pct ? "%" : bytes ? "bytes" : "count");
  }
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args args = parse_args(argc, argv);
  const WorkloadDef* w = nullptr;
  for (const auto& def : kWorkloads) {
    if (args.workload == def.name) w = &def;
  }
  if (w == nullptr) usage("unknown workload " + args.workload);

  Outcome out;
  SpanLog spans;
  const fs::path out_dir = fs::path(args.workdir) / "out";
  const std::string stem = std::string(w->name) + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-layers" : "-e2e");
  try {
    fs::create_directories(out_dir);
    if (args.trace) {
      run_traced(args, *w, out, spans);
      spans.write(out_dir / (stem + "-spans.json"));
    } else {
      run_end_to_end(args, *w, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  // End-to-end metrics are times and sizes, never 0. Per-layer values
  // may be: pagerank's pinned clock takes no DVFS steps, and the
  // tracing overhead can come out below zero in noise.
  for (const auto& m : out.metrics) {
    if (args.trace) {
      out.check(std::isfinite(m.value), m.name + " is finite");
    } else {
      out.check(std::isfinite(m.value) && m.value > 0.0,
                m.name + " is finite and positive");
    }
  }
  for (const auto& m : out.metrics) {
    std::printf("%-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations: %zu attempted, %zu failed\n", out.attempted,
              out.failed);
  for (const auto& [ok, what] : out.checks) {
    std::printf("check %s: %s\n", ok ? "pass" : "FAIL", what.c_str());
  }
  const bool correct = out.checks_failed() == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + metrics_json(out.metrics) + "}";
  std::ofstream(out_dir / (stem + ".json")) << result << "\n";
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
