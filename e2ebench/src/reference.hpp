// Reference computations the benchmark checks the program against.
//
// Kept apart from gpuvar on purpose: nothing here includes a gpuvar
// header or calls into the library, so a defect in the program's own
// quantile, predicate or topology code cannot also hide in the check.
// Every function is the plain textbook form (sort, then index; loop,
// then test), and reference_test.cpp pins each one on inputs worked
// out by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace e2e::ref {

/// Box summary with the paper's conventions, from a sorted copy.
struct Box {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double lo_whisker = 0.0;  ///< q1 - 1.5 * IQR
  double hi_whisker = 0.0;  ///< q3 + 1.5 * IQR
  /// (hi_whisker - lo_whisker) / median, as a percentage.
  double variation_pct = 0.0;
};

/// Type-7 (R default) quantile of an already sorted, non-empty sample:
/// h = (n - 1) p, interpolate between x[floor(h)] and x[floor(h) + 1].
double quantile7(const std::vector<double>& sorted, double p);

/// Box of an unsorted, non-empty sample (sorts its own copy).
Box box(std::vector<double> values);

/// Inclusive integer range; the default matches everything.
struct Range {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  bool contains(std::int64_t v) const { return lo <= v && v <= hi; }
};

/// Where one row's GPU sits, plus the row's day tag.
struct RowPlace {
  std::int64_t node = 0;
  std::int64_t gpu_index = 0;
  std::int64_t cabinet = 0;
  std::int64_t row = 0;
  std::int64_t column = 0;
  std::int64_t day = -1;
};

/// A conjunction of ranges, one per field.
struct Filter {
  Range node;
  Range gpu_index;
  Range cabinet;
  Range row;
  Range column;
  Range day;
};

/// Indices of the rows every range of `f` accepts, in row order.
std::vector<std::size_t> filter_rows(const std::vector<RowPlace>& rows,
                                     const Filter& f);

/// What a full-coverage campaign over a cluster must produce.
struct Counts {
  std::size_t nodes = 0;
  std::size_t gpus = 0;  ///< GPUs measured
  std::size_t rows = 0;  ///< one per measured GPU per run
  std::size_t shards = 0;  ///< one node-job bucket per node
};

/// Expected counts for a row x column x nodes-per-column machine with
/// `gpus_per_node` GPUs each. A single-GPU workload measures every GPU
/// of a node (one job each); a `gpus_per_job`-wide workload runs one
/// job per node on its first `gpus_per_job` GPUs.
Counts expected_counts(int rows, int columns, int nodes_per_column,
                       int gpus_per_node, int gpus_per_job,
                       int runs_per_gpu);

}  // namespace e2e::ref
