#include "obs/metrics.hpp"

#include <bit>

namespace gpuvar::obs {

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return mine;
}

}  // namespace detail

std::size_t Histogram::bucket_of(std::uint64_t v) {
  // bit_width(0) == 0, bit_width(1) == 1, ..., bit_width(2^63..) == 64;
  // the top value class folds into the last bucket.
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

void Histogram::record(std::uint64_t v) {
  const std::size_t shard = detail::shard_index();
  count_[shard].v.fetch_add(1, std::memory_order_relaxed);
  total_[shard].v.fetch_add(v, std::memory_order_relaxed);
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t lo = lo_.load(std::memory_order_relaxed);
  while (v < lo &&
         !lo_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  std::uint64_t hi = hi_.load(std::memory_order_relaxed);
  while (v > hi &&
         !hi_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  for (const auto& c : count_) s.count += c.v.load(std::memory_order_relaxed);
  for (const auto& c : total_) s.total += c.v.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  if (s.count > 0) {
    s.lo = lo_.load(std::memory_order_relaxed);
    s.hi = hi_.load(std::memory_order_relaxed);
  }
  return s;
}

namespace {

template <class Map, class Metric>
Metric& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<Metric>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  return find_or_create<decltype(counters_), Counter>(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  return find_or_create<decltype(gauges_), Gauge>(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  return find_or_create<decltype(histograms_), Histogram>(histograms_, name);
}

MetricsSnapshot Registry::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->has_value(), g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  return snap;
}

std::size_t Registry::size() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void install_metrics(Registry* registry) {
  detail::g_metrics_epoch.fetch_add(1, std::memory_order_acq_rel);
  detail::g_metrics.store(registry, std::memory_order_release);
}

}  // namespace gpuvar::obs
