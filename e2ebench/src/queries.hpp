// The benchmark's fixed query mix: six analyses crossed with three
// predicates, and the reference each result is checked against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "query/dataset.hpp"
#include "query/source.hpp"
#include "reference.hpp"
#include "telemetry/frame.hpp"

namespace e2e {

enum class Analysis { kVariability, kFlags, kCorrelate, kDrift, kImpact,
                      kCompare };
inline constexpr std::array<Analysis, 6> kAnalyses{
    Analysis::kVariability, Analysis::kFlags,  Analysis::kCorrelate,
    Analysis::kDrift,       Analysis::kImpact, Analysis::kCompare};
const char* analysis_name(Analysis a);

/// One predicate of the mix, in both the program's and the reference's
/// vocabulary (built from the same bounds, checked independently).
struct PredicateDef {
  std::string name;
  gpuvar::query::Predicate where;
  ref::Filter filter;
};

/// The three predicates for a cluster of `nodes` nodes: every row; the
/// node range [3n/8, 3n/8 + n/8) that header pushdown mostly skips;
/// row = 0, which has no header stats, so every shard is decoded and
/// then filtered.
std::vector<PredicateDef> predicate_mix(int nodes);

struct Query {
  Analysis analysis;
  std::size_t predicate;  ///< index into the predicate mix
};

/// The 18 queries, analysis-major.
std::vector<Query> query_mix(std::size_t predicates);

/// What one query produced: rows it matched, an FNV-1a fingerprint of
/// every field of the analysis result, and (compare only) whether the
/// self-comparison matched every GPU and flagged no change.
struct QueryResult {
  /// Wall time of the analysis call itself (Source assembly included,
  /// fingerprinting excluded).
  double ms = 0.0;
  std::size_t rows = 0;
  std::uint64_t fingerprint = 0;
  bool self_compare_ok = true;
};

/// Runs one analysis over `source`; compare runs `source` against
/// `other` (the store against itself), the rest ignore `other`.
QueryResult evaluate(Analysis a, const gpuvar::query::Source& source,
                     const gpuvar::query::Source& other);

/// One query against a Dataset: builds fresh Sources for the predicate
/// and evaluates the analysis.
QueryResult run_query(const gpuvar::query::Dataset& dataset,
                      const PredicateDef& predicate, Analysis a);

/// Expected result of each query of the mix: the analysis over
/// frame.select(ref::filter_rows(...)), never through a Dataset.
std::vector<QueryResult> expected_results(const gpuvar::RecordFrame& frame,
                                          const std::vector<PredicateDef>& preds,
                                          const std::vector<Query>& mix);

}  // namespace e2e
