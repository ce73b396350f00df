// Tests of the reference computations on inputs worked out by hand.
// Exit code 0 = all pass; each failure prints its expression and line.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "reference.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

#define CHECK(expr) check((expr), #expr, __LINE__)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_quantile7() {
  using e2e::ref::quantile7;
  // n = 5: h = 4p lands on whole indices at the quartiles.
  const std::vector<double> five{1, 2, 3, 4, 5};
  CHECK(near(quantile7(five, 0.0), 1.0));
  CHECK(near(quantile7(five, 0.25), 2.0));
  CHECK(near(quantile7(five, 0.5), 3.0));
  CHECK(near(quantile7(five, 0.75), 4.0));
  CHECK(near(quantile7(five, 1.0), 5.0));
  // n = 4: h = 3 * 0.25 = 0.75 -> 10 + 0.75 * (20 - 10) = 17.5;
  // h = 1.5 -> 25; h = 2.25 -> 30 + 0.25 * 10 = 32.5.
  const std::vector<double> four{10, 20, 30, 40};
  CHECK(near(quantile7(four, 0.25), 17.5));
  CHECK(near(quantile7(four, 0.5), 25.0));
  CHECK(near(quantile7(four, 0.75), 32.5));
  // p90 of 1..10: h = 9 * 0.9 = 8.1 -> 9 + 0.1 * 1 = 9.1.
  const std::vector<double> ten{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(near(quantile7(ten, 0.9), 9.1));
  // A single value is every quantile.
  CHECK(near(quantile7({7.0}, 0.3), 7.0));
  CHECK(throws([] { quantile7({}, 0.5); }));
  CHECK(throws([] { quantile7({1.0}, 1.5); }));
}

void test_box() {
  // Unsorted {4, 1, 3, 2, 100}: sorted 1 2 3 4 100, q1 = 2, median = 3,
  // q3 = 4, IQR = 2, whiskers -1 and 7, variation = 8 / 3 = 266.67%.
  const auto b = e2e::ref::box({4, 1, 3, 2, 100});
  CHECK(near(b.q1, 2.0));
  CHECK(near(b.median, 3.0));
  CHECK(near(b.q3, 4.0));
  CHECK(near(b.lo_whisker, -1.0));
  CHECK(near(b.hi_whisker, 7.0));
  CHECK(near(b.variation_pct, 800.0 / 3.0));
  // {100, 102, 104, 106}: q1 = 101.5, median 103, q3 = 104.5, IQR 3,
  // whiskers 97 and 109, variation = 12 / 103.
  const auto c = e2e::ref::box({106, 100, 104, 102});
  CHECK(near(c.q1, 101.5));
  CHECK(near(c.q3, 104.5));
  CHECK(near(c.lo_whisker, 97.0));
  CHECK(near(c.hi_whisker, 109.0));
  CHECK(near(c.variation_pct, 1200.0 / 103.0));
  // A constant sample has no spread.
  CHECK(near(e2e::ref::box({5, 5, 5}).variation_pct, 0.0));
}

void test_filter_rows() {
  using e2e::ref::RowPlace;
  // node, gpu_index, cabinet, row, column, day
  const std::vector<RowPlace> rows{
      {0, 0, 0, 0, 0, -1}, {0, 1, 0, 0, 0, -1}, {1, 6, 0, 0, 1, -1},
      {2, 12, 1, 1, 0, -1}, {3, 18, 1, 1, 1, 2}, {3, 19, 1, 1, 1, 3},
  };
  e2e::ref::Filter all;
  CHECK(e2e::ref::filter_rows(rows, all).size() == 6);

  e2e::ref::Filter nodes;
  nodes.node = {1, 2};
  CHECK((e2e::ref::filter_rows(rows, nodes) == std::vector<std::size_t>{2, 3}));

  e2e::ref::Filter row0;
  row0.row = {0, 0};
  CHECK((e2e::ref::filter_rows(rows, row0) ==
         std::vector<std::size_t>{0, 1, 2}));

  // Conjunction: row 1 and day 3 leaves only the last row.
  e2e::ref::Filter both;
  both.row = {1, 1};
  both.day = {3, 3};
  CHECK((e2e::ref::filter_rows(rows, both) == std::vector<std::size_t>{5}));

  e2e::ref::Filter none;
  none.gpu_index = {7, 11};
  CHECK(e2e::ref::filter_rows(rows, none).empty());
}

void test_expected_counts() {
  // Summit slice: 8 rows x 29 columns x 2 nodes = 464 nodes of 6 GPUs.
  const auto slice = e2e::ref::expected_counts(8, 29, 2, 6, 1, 2);
  CHECK(slice.nodes == 464);
  CHECK(slice.gpus == 2784);
  CHECK(slice.rows == 5568);
  CHECK(slice.shards == 464);
  // Four-rank jobs use four of each node's six GPUs: 464 * 4 = 1856.
  const auto multi = e2e::ref::expected_counts(8, 29, 2, 6, 4, 2);
  CHECK(multi.gpus == 1856);
  CHECK(multi.rows == 3712);
  // Full Summit: 8 x 29 x 18 = 4176 nodes, 25056 GPUs, 50112 rows.
  const auto full = e2e::ref::expected_counts(8, 29, 18, 6, 1, 2);
  CHECK(full.nodes == 4176);
  CHECK(full.gpus == 25056);
  CHECK(full.rows == 50112);
  CHECK(throws([] { e2e::ref::expected_counts(8, 29, 2, 6, 7, 2); }));
  CHECK(throws([] { e2e::ref::expected_counts(0, 29, 2, 6, 1, 2); }));
}

}  // namespace

int main() {
  test_quantile7();
  test_box();
  test_filter_rows();
  test_expected_counts();
  if (failures != 0) {
    std::fprintf(stderr, "%d reference check(s) failed\n", failures);
    return 1;
  }
  std::printf("reference tests passed\n");
  return 0;
}
