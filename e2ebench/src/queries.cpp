#include "queries.hpp"

#include <chrono>
#include <utility>
#include <string_view>

#include "core/compare.hpp"
#include "core/correlate.hpp"
#include "core/drift.hpp"
#include "core/flagging.hpp"
#include "core/user_impact.hpp"
#include "core/variability.hpp"

namespace e2e {

namespace q = gpuvar::query;

namespace {

/// Runs `f` and returns its result, adding its wall time to `ms`.
template <typename F>
auto timed(double& ms, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  auto out = f();
  ms += std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  return out;
}

/// FNV-1a over the raw bytes of every field: two results fingerprint
/// alike only if they agree bit for bit (doubles by representation).
class Fingerprint {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_box(Fingerprint& f, const gpuvar::MetricVariability& m) {
  const auto& b = m.box;
  f.add(static_cast<std::uint64_t>(b.count));
  for (double v : {b.q1, b.median, b.q3, b.iqr, b.lo_whisker, b.hi_whisker,
                   b.range, b.min, b.max, m.variation_pct}) {
    f.add(v);
  }
  f.add(static_cast<std::uint64_t>(b.outlier_indices.size()));
  for (std::size_t i : b.outlier_indices) f.add(static_cast<std::uint64_t>(i));
}

void add_delta(Fingerprint& f, const gpuvar::GpuDelta& d) {
  f.add(d.name);
  for (double v : {d.before_ms, d.after_ms, d.delta_pct, d.before_power_w,
                   d.after_power_w, d.before_temp_c, d.after_temp_c}) {
    f.add(v);
  }
}

/// The location facts of every row of `frame`, for ref::filter_rows.
std::vector<ref::RowPlace> row_places(const gpuvar::RecordFrame& frame) {
  const auto ids = frame.gpu_ids();
  const auto days = frame.days_of_week();
  std::vector<ref::RowPlace> rows(frame.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& g = frame.gpu(ids[i]);
    rows[i] = {g.loc.node,
               static_cast<std::int64_t>(g.gpu_index),
               g.loc.cabinet,
               g.loc.row,
               g.loc.column,
               days[i]};
  }
  return rows;
}

}  // namespace

const char* analysis_name(Analysis a) {
  switch (a) {
    case Analysis::kVariability: return "variability";
    case Analysis::kFlags: return "flags";
    case Analysis::kCorrelate: return "correlate";
    case Analysis::kDrift: return "drift";
    case Analysis::kImpact: return "impact";
    case Analysis::kCompare: return "compare";
  }
  return "?";
}

std::vector<PredicateDef> predicate_mix(int nodes) {
  std::vector<PredicateDef> out(3);
  out[0].name = "all";

  const int lo = nodes * 3 / 8;
  const int hi = lo + nodes / 8 - 1;
  out[1].name = "node=" + std::to_string(lo) + ".." + std::to_string(hi);
  out[1].where.node = {lo, hi};
  out[1].filter.node = {lo, hi};

  out[2].name = "row=0";
  out[2].where.row = {0, 0};
  out[2].filter.row = {0, 0};
  return out;
}

std::vector<Query> query_mix(std::size_t predicates) {
  std::vector<Query> mix;
  for (Analysis a : kAnalyses) {
    for (std::size_t p = 0; p < predicates; ++p) mix.push_back({a, p});
  }
  return mix;
}

QueryResult evaluate(Analysis a, const q::Source& source,
                     const q::Source& other) {
  QueryResult r;
  Fingerprint f;
  switch (a) {
    case Analysis::kVariability: {
      const auto rep =
          timed(r.ms, [&] { return gpuvar::analyze_variability(source); });
      for (const auto* m : {&rep.perf, &rep.freq, &rep.power, &rep.temp}) {
        add_box(f, *m);
      }
      f.add(static_cast<std::uint64_t>(rep.records));
      f.add(static_cast<std::uint64_t>(rep.gpus));
      break;
    }
    case Analysis::kFlags: {
      const auto rep =
          timed(r.ms, [&] { return gpuvar::analyze_flags(source); });
      for (const auto& g : rep.gpus) {
        f.add(static_cast<std::uint64_t>(g.gpu_index));
        f.add(g.name);
        for (auto reason : g.reasons) f.add(static_cast<int>(reason));
        f.add(g.severity);
      }
      for (const auto& c : rep.cabinets) {
        f.add(c.cabinet);
        f.add(c.note);
      }
      break;
    }
    case Analysis::kCorrelate: {
      const auto rep =
          timed(r.ms, [&] { return gpuvar::analyze_correlation(source); });
      for (const auto* c : rep.all()) {
        f.add(static_cast<int>(c->x));
        f.add(static_cast<int>(c->y));
        f.add(c->rho);
        f.add(c->spearman);
        f.add(c->strength);
      }
      break;
    }
    case Analysis::kDrift: {
      // As `gpuvar query --analysis drift` reports it: the population
      // run-noise estimate, then the per-GPU drift flags.
      const auto [noise, flags] = timed(r.ms, [&] {
        const double sigma = gpuvar::estimate_run_noise_ms(source);
        return std::pair(sigma, gpuvar::analyze_drift(source));
      });
      f.add(noise);
      for (const auto& d : flags) {
        f.add(static_cast<std::uint64_t>(d.gpu_index));
        f.add(d.name);
        f.add(d.runs);
        for (double v : {d.baseline_ms, d.recent_ewma_ms, d.drift_pct,
                         d.noise_sigmas}) {
          f.add(v);
        }
      }
      break;
    }
    case Analysis::kImpact: {
      const auto table =
          timed(r.ms, [&] { return gpuvar::analyze_user_impact(source); });
      for (const auto& j : table) {
        f.add(j.gpus_per_job);
        f.add(j.expected_slowdown);
        f.add(j.p95_slowdown);
        f.add(j.p_any_slow);
      }
      break;
    }
    case Analysis::kCompare: {
      const auto cmp =
          timed(r.ms, [&] { return gpuvar::analyze_compare(source, other); });
      f.add(static_cast<std::uint64_t>(cmp.matched_gpus));
      f.add(static_cast<std::uint64_t>(cmp.only_before));
      f.add(static_cast<std::uint64_t>(cmp.only_after));
      f.add(cmp.median_delta_pct);
      f.add(cmp.noise_floor_pct);
      for (const auto& d : cmp.significant) add_delta(f, d);
      for (const auto& d : cmp.all) add_delta(f, d);
      r.self_compare_ok = cmp.matched_gpus == source.gpu_count() &&
                          cmp.only_before == 0 && cmp.only_after == 0 &&
                          cmp.significant.empty();
      break;
    }
  }
  r.rows = source.size();
  r.fingerprint = f.value();
  return r;
}

QueryResult run_query(const q::Dataset& dataset, const PredicateDef& predicate,
                      Analysis a) {
  const q::Source source(dataset, predicate.where);
  const q::Source other(dataset, predicate.where);
  return evaluate(a, source, other);
}

std::vector<QueryResult> expected_results(const gpuvar::RecordFrame& frame,
                                          const std::vector<PredicateDef>& preds,
                                          const std::vector<Query>& mix) {
  const auto places = row_places(frame);
  std::vector<gpuvar::RecordFrame> selected;
  for (const auto& p : preds) {
    selected.push_back(frame.select(ref::filter_rows(places, p.filter)));
  }
  std::vector<QueryResult> out;
  for (const Query& query : mix) {
    const q::Source source(selected[query.predicate]);
    out.push_back(evaluate(query.analysis, source, source));
  }
  return out;
}

}  // namespace e2e
