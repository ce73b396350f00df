// Metrics registry: sharded-by-thread counters, gauges, histograms.
//
// Determinism contract: a snapshot taken after the instrumented work
// completes is a pure function of the work, not of the schedule. That
// holds because every metric's merge is a commutative, associative
// *integer* operation — counters sum uint64 increments, gauges keep a
// high-water maximum, histograms count into power-of-two buckets — so
// any interleaving of the same increments produces the same merged
// value. (Floating-point sums are exactly the thing this design
// excludes: FP addition is not associative, so a schedule-dependent
// accumulation order would leak into the dump bytes.)
//
// Concurrency: each metric spreads its hot state across kMetricShards
// cache-line-sized cells indexed by a stable per-thread shard id, so
// parallel_for workers on different shards never contend on a line.
// Metric lookup locks the registry mutex once per (callsite, install)
// thanks to the epoch-checked handle behind GPUVAR_METRIC_COUNT.
//
// Cost model: with no Registry installed, GPUVAR_METRIC_* compile to
// one atomic pointer load and a branch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gpuvar::obs {

inline constexpr std::size_t kMetricShards = 16;
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {

/// One cache line per cell so shards never false-share.
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> v{0};
};

/// Stable small shard index for the calling thread (assigned once per
/// thread from a global counter, reduced mod kMetricShards).
std::size_t shard_index();

}  // namespace detail

/// Monotonic event count. Merge = sum (commutative).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<detail::ShardCell, kMetricShards> cells_;
};

/// High-water mark of a non-negative integer observation. Merge = max
/// (commutative); unlike a last-writer-wins gauge, the merged value
/// cannot depend on scheduling order.
class Gauge {
 public:
  void record_max(std::uint64_t v) {
    auto& cell = cells_[detail::shard_index()].v;
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (v > cur &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    any_.fetch_add(1, std::memory_order_relaxed);
  }
  bool has_value() const {
    return any_.load(std::memory_order_relaxed) != 0;
  }
  std::uint64_t value() const {
    std::uint64_t hi = 0;
    for (const auto& c : cells_) {
      const std::uint64_t v = c.v.load(std::memory_order_relaxed);
      if (v > hi) hi = v;
    }
    return hi;
  }

 private:
  std::array<detail::ShardCell, kMetricShards> cells_;
  std::atomic<std::uint64_t> any_{0};
};

/// Log2-bucketed distribution of non-negative integer observations
/// (e.g. durations in integer microseconds). Bucket b holds values v
/// with bit_width(v) == b, i.e. [2^(b-1), 2^b); bucket 0 holds v == 0.
/// All state is integer counts/extrema, so the merged snapshot is
/// schedule-independent.
class Histogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t total = 0;  ///< sum of observations
    std::uint64_t lo = 0;     ///< minimum observation (count > 0)
    std::uint64_t hi = 0;     ///< maximum observation (count > 0)
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
  };

  void record(std::uint64_t v);
  Snapshot snapshot() const;

  static std::size_t bucket_of(std::uint64_t v);

 private:
  std::array<detail::ShardCell, kMetricShards> count_;
  std::array<detail::ShardCell, kMetricShards> total_;
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> lo_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> hi_{0};
};

/// Deterministic merged view of a registry, ordered by metric name.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t count = 0;
  };
  struct GaugeRow {
    std::string name;
    bool set = false;
    std::uint64_t high_water = 0;
  };
  struct HistogramRow {
    std::string name;
    Histogram::Snapshot hist;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  std::size_t size() const {
    return counters.size() + gauges.size() + histograms.size();
  }
};

/// Named metrics, created on first use. Lookup locks; the returned
/// references stay valid (and lock-free to update) for the registry's
/// lifetime.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merged snapshot in sorted-name order. Take it only after the
  /// instrumented work completes; then it is schedule-independent.
  MetricsSnapshot snapshot() const;

  std::size_t size() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GPUVAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GPUVAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GPUVAR_GUARDED_BY(mu_);
};

namespace detail {
// Defined here, not in metrics.cpp, so that the accessors below inline
// into every call site: with no registry installed, a GPUVAR_METRIC_*
// on the simulator's per-tick path is one load and a branch, not a call.
inline std::atomic<Registry*> g_metrics{nullptr};
inline std::atomic<std::uint64_t> g_metrics_epoch{0};
}  // namespace detail

/// The installed registry, or nullptr (the macro fast path). Same
/// install discipline as the trace sink: never concurrently with
/// instrumented code.
inline Registry* metrics() {
  return detail::g_metrics.load(std::memory_order_acquire);
}
/// Bumped on every install; lets per-callsite handles cache a Counter*
/// and revalidate with one integer compare.
inline std::uint64_t metrics_epoch() {
  return detail::g_metrics_epoch.load(std::memory_order_acquire);
}
void install_metrics(Registry* registry);

/// Per-callsite counter cache behind GPUVAR_METRIC_COUNT/ADD: resolves
/// the name through the registry once per install epoch, then the hot
/// path is pointer-compare + sharded fetch_add.
class CounterHandle {
 public:
  Counter* resolve(Registry* registry, std::uint64_t epoch,
                   std::string_view name) {
    if (epoch != epoch_) {
      counter_ = &registry->counter(name);
      epoch_ = epoch;
    }
    return counter_;
  }

 private:
  std::uint64_t epoch_ = 0;  ///< 0 = never resolved (epochs start at 1)
  Counter* counter_ = nullptr;
};

/// Installs `registry` for a scope and restores the previous one on
/// exit.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(Registry* registry) : prev_(metrics()) {
    install_metrics(registry);
  }
  ~ScopedMetrics() { install_metrics(prev_); }

  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  Registry* prev_;
};

}  // namespace gpuvar::obs

/// Adds `n` to counter `name` (a string literal). One atomic load and
/// a branch when no registry is installed.
#define GPUVAR_METRIC_ADD(name, n)                                          \
  do {                                                                      \
    if (::gpuvar::obs::Registry* gpuvar_obs_reg =                           \
            ::gpuvar::obs::metrics()) {                                     \
      static thread_local ::gpuvar::obs::CounterHandle gpuvar_obs_handle;   \
      gpuvar_obs_handle                                                     \
          .resolve(gpuvar_obs_reg, ::gpuvar::obs::metrics_epoch(), (name))  \
          ->add(static_cast<std::uint64_t>(n));                             \
    }                                                                       \
  } while (0)

/// Increments counter `name` by one.
#define GPUVAR_METRIC_COUNT(name) GPUVAR_METRIC_ADD(name, 1)

/// Raises gauge `name` to at least `v` (high-water mark).
#define GPUVAR_METRIC_MAX(name, v)                                   \
  do {                                                               \
    if (::gpuvar::obs::Registry* gpuvar_obs_reg =                    \
            ::gpuvar::obs::metrics()) {                              \
      gpuvar_obs_reg->gauge(name).record_max(                        \
          static_cast<std::uint64_t>(v));                            \
    }                                                                \
  } while (0)

/// Records `v` into histogram `name`.
#define GPUVAR_METRIC_HIST(name, v)                                  \
  do {                                                               \
    if (::gpuvar::obs::Registry* gpuvar_obs_reg =                    \
            ::gpuvar::obs::metrics()) {                              \
      gpuvar_obs_reg->histogram(name).record(                        \
          static_cast<std::uint64_t>(v));                            \
    }                                                                \
  } while (0)
