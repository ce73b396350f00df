#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e::ref {

double quantile7(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("quantile7: empty sample");
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("quantile7: p outside [0, 1]");
  }
  const double h = static_cast<double>(sorted.size() - 1) * p;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - std::floor(h)) * (sorted[hi] - sorted[lo]);
}

Box box(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Box b;
  b.q1 = quantile7(values, 0.25);
  b.median = quantile7(values, 0.5);
  b.q3 = quantile7(values, 0.75);
  const double iqr = b.q3 - b.q1;
  b.lo_whisker = b.q1 - 1.5 * iqr;
  b.hi_whisker = b.q3 + 1.5 * iqr;
  b.variation_pct =
      b.median != 0.0
          ? (b.hi_whisker - b.lo_whisker) / std::abs(b.median) * 100.0
          : 0.0;
  return b;
}

std::vector<std::size_t> filter_rows(const std::vector<RowPlace>& rows,
                                     const Filter& f) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowPlace& r = rows[i];
    if (f.node.contains(r.node) && f.gpu_index.contains(r.gpu_index) &&
        f.cabinet.contains(r.cabinet) && f.row.contains(r.row) &&
        f.column.contains(r.column) && f.day.contains(r.day)) {
      out.push_back(i);
    }
  }
  return out;
}

Counts expected_counts(int rows, int columns, int nodes_per_column,
                       int gpus_per_node, int gpus_per_job,
                       int runs_per_gpu) {
  if (rows <= 0 || columns <= 0 || nodes_per_column <= 0 ||
      gpus_per_node <= 0 || gpus_per_job <= 0 || runs_per_gpu <= 0 ||
      gpus_per_job > gpus_per_node) {
    throw std::invalid_argument("expected_counts: bad topology");
  }
  Counts c;
  c.nodes = static_cast<std::size_t>(rows) *
            static_cast<std::size_t>(columns) *
            static_cast<std::size_t>(nodes_per_column);
  const int per_node = gpus_per_job == 1 ? gpus_per_node : gpus_per_job;
  c.gpus = c.nodes * static_cast<std::size_t>(per_node);
  c.rows = c.gpus * static_cast<std::size_t>(runs_per_gpu);
  c.shards = c.nodes;
  return c;
}

}  // namespace e2e::ref
