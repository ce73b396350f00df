#include "obs/trace.hpp"

#include <atomic>

namespace gpuvar::obs {

namespace {

std::atomic<TraceSink*> g_trace{nullptr};

}  // namespace

TraceLane& TraceSink::lane(std::uint32_t id, std::string_view label) {
  MutexLock lock(mu_);
  auto it = lanes_.find(id);
  if (it == lanes_.end()) {
    it = lanes_
             .emplace(id, std::make_unique<TraceLane>(id, std::string(label)))
             .first;
  }
  return *it->second;
}

std::vector<const TraceLane*> TraceSink::lanes() const {
  MutexLock lock(mu_);
  std::vector<const TraceLane*> out;
  out.reserve(lanes_.size());
  for (const auto& [id, lane] : lanes_) out.push_back(lane.get());
  return out;
}

std::size_t TraceSink::lane_count() const {
  MutexLock lock(mu_);
  return lanes_.size();
}

std::size_t TraceSink::event_count() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, lane] : lanes_) n += lane->events().size();
  return n;
}

TraceSink* trace() { return g_trace.load(std::memory_order_acquire); }

void install_trace(TraceSink* sink) {
  g_trace.store(sink, std::memory_order_release);
}

LaneScope::LaneScope(std::uint32_t id, std::string_view label)
    : prev_(detail::t_current_lane) {
  if (TraceSink* sink = trace()) {
    detail::t_current_lane = &sink->lane(id, label);
  } else {
    detail::t_current_lane = nullptr;
  }
}

LaneScope::~LaneScope() { detail::t_current_lane = prev_; }

}  // namespace gpuvar::obs
