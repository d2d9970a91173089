// Self-test of the benchmark's metric arithmetic (src/metrics.hpp): run by
// `ctest` in the benchmark's build directory and by `run.py` before every benchmark run.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

void test_nearest_rank() {
  using perfbench::nearest_rank;
  const auto empty = nearest_rank({}, 99.0);
  expect(empty.value == 0.0 && empty.samples == 0, "empty set gives {0, 0}");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(nearest_rank(v, 50.0).value == 50.0, "p50 of 1..100 is 50");
  expect(nearest_rank(v, 99.0).value == 99.0, "p99 of 1..100 is 99");
  expect(nearest_rank(v, 100.0).value == 100.0, "p100 is the maximum");
  expect(nearest_rank(v, 0.0).value == 1.0, "p0 is the minimum");
  expect(nearest_rank(v, 150.0).value == 100.0 && nearest_rank(v, -5.0).value == 1.0,
         "p is clamped to [0, 100]");
  expect(nearest_rank(v, 99.0).samples == 100, "sample count is reported");
  // Nearest rank never interpolates: ceil(0.99 * 10) = 10th of 10.
  expect(nearest_rank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99.0).value == 10.0,
         "p99 of ten samples is the maximum");
  expect(nearest_rank({3, 1, 2}, 50.0).value == 2.0, "p50 of three is the middle one");
}

void test_median() {
  using perfbench::median;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle two");
}

void test_remainder() {
  using perfbench::remainder;
  expect(near(remainder(1.0, {0.25, 0.5}), 0.25), "self time is wall minus parts");
  expect(near(remainder(1.0, {}), 1.0), "no parts leaves the whole wall");
  expect(remainder(1.0, {0.75, 0.5}) < 0.0, "overrunning parts give a negative remainder");
}

void test_spans() {
  perfbench::SpanLog log;
  {
    perfbench::SpanLog::Scope outer(log, "launch");
    {
      perfbench::SpanLog::Scope a(log, "util.fill");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      perfbench::SpanLog::Scope b(log, "hetero.run");
      perfbench::SpanLog::Scope nested(log, "util.fill");  // grandchild of launch
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto& s = log.spans();
  expect(s.size() == 4, "four spans recorded");
  expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0 && s[3].parent == 2,
         "parents follow nesting");
  for (const auto& span : s) expect(span.end >= span.start, "spans close after they open");
  expect(s[0].start <= s[1].start && s[2].end <= s[0].end, "children lie inside their parent");
  const double self = perfbench::remainder(s[0].seconds(), {s[1].seconds(), s[2].seconds()});
  expect(self >= 0.0 && self < s[0].seconds(), "a parent's self time excludes its children");
  expect(near(log.total("util.fill"), s[1].seconds() + s[3].seconds()),
         "totals sum every span of a name, at any depth");
  expect(log.total("missing") == 0.0, "unknown names sum to 0");
  {
    perfbench::SpanLog::Scope again(log, "after");
  }
  expect(log.spans().back().parent == -1, "closing the outer span restores the top level");
}

void test_digest() {
  const double a[2] = {1.0, 2.0};
  const double b[2] = {1.0, 2.0000000000000004};
  const auto ha = perfbench::digest(a, sizeof a);
  expect(ha == perfbench::digest(a, sizeof a), "digest is deterministic");
  expect(ha != perfbench::digest(b, sizeof b), "one ulp changes the digest");
  expect(perfbench::digest(&a[1], sizeof(double), perfbench::digest(&a[0], sizeof(double))) == ha,
         "chained digests equal the digest of the concatenation");
}

void test_json_shape() {
  const std::string line = perfbench::result_json(
      true, 12, 0, {{"host_rps", 1234.5678901234567, "req/s"}, {"setup_s", 0.1, "s"}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"
             "\"host_rps\": {\"value\": 1234.5678901234567, \"unit\": \"req/s\"}, "
             "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}",
         "result line shape and full-precision values");
  expect(perfbench::result_json(false, 1, 1, {}) ==
             "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}",
         "failed run shape");
  expect(perfbench::result_json(true, 1, 0, {{"x", NAN, "s"}}).find("\"value\": null") !=
             std::string::npos,
         "non-finite values render as null");
  expect(perfbench::result_json(true, 1, 0, {{"a\"b", 1.0, "s"}}).find("\"a\\\"b\"") !=
             std::string::npos,
         "quotes in names are escaped");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_median();
  test_remainder();
  test_spans();
  test_digest();
  test_json_shape();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
