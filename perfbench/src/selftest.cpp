// Self-tests of the benchmark's own code: the percentile rule, the
// quartiles, warm/cold classification, and the request sequence
// (deterministic per seed, with the stated repeat share). Exit code 0
// when every check passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "engine/experiment.hpp"
#include "requests.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void percentile_rule() {
  // Ten samples beyond the percentile: p90 needs 100 samples, p99 1000.
  expect(perfbench::tail_percentile(19) == 0.0, "19 samples support no percentile");
  expect(perfbench::tail_percentile(20) == 50.0, "20 samples support p50");
  expect(perfbench::tail_percentile(99) == 75.0, "99 samples support p75");
  expect(perfbench::tail_percentile(100) == 90.0, "100 samples support p90");
  expect(perfbench::tail_percentile(200) == 95.0, "200 samples support p95");
  expect(perfbench::tail_percentile(1000) == 99.0, "1000 samples support p99");
  expect(perfbench::samples_beyond(100, 90.0) == 10, "p90 of 100 has 10 beyond");
  expect(perfbench::samples_beyond(99, 90.0) == 9, "p90 of 99 has 9 beyond");

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  expect(perfbench::percentile(values, 90.0) == 90.0, "nearest-rank p90 of 1..100");
  expect(perfbench::percentile(values, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  expect(perfbench::median(values) == 50.5, "median of 1..100");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
}

void quartile_rule() {
  // Reference values from Python's statistics.quantiles(values, n=4).
  const auto check = [](std::vector<double> values, double q1, double q2, double q3) {
    const perfbench::Quartiles q = perfbench::quartiles(std::move(values));
    expect(near(q.q1, q1) && near(q.q2, q2) && near(q.q3, q3), "quartiles match Python");
  };
  check({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  check({3.5, 1.25, 9.0}, 1.25, 3.5, 9.0);
  check({2.0, 7.0}, 0.75, 4.5, 8.25);
  check({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11}, 3.0, 6.0, 9.0);
}

void classification() {
  const std::vector<std::vector<std::uint64_t>> hashes{
      {1, 2}, {1, 2}, {2}, {2, 3}, {3, 1}, {}, {4}};
  const std::vector<bool> warm = perfbench::classify_warm(hashes);
  const std::vector<bool> expected{false, true, true, false, true, false, false};
  expect(warm == expected, "warm iff every scenario appeared in an earlier request");
}

void request_sequence() {
  const auto a = perfbench::make_request_sequence(7, 600);
  const auto b = perfbench::make_request_sequence(7, 600);
  const auto c = perfbench::make_request_sequence(8, 600);
  bool same = a.size() == b.size();
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && same; ++i) same = a[i].query() == b[i].query();
  for (std::size_t i = 0; i < a.size(); ++i) differs = differs || a[i].query() != c[i].query();
  expect(same, "the same seed gives the same sequence");
  expect(differs, "another seed gives another sequence");

  std::size_t reused = 0;
  for (const perfbench::ServeRequest& request : a) {
    reused += request.origin != perfbench::ServeRequest::Origin::fresh;
    for (const std::size_t size : request.sizes) expect(size <= 100, "sizes <= 100");
    expect(request.tasks <= 100, "tasks <= 100");
  }
  const double share = static_cast<double>(reused) / static_cast<double>(a.size());
  std::printf("repeat-or-overlap share %.3f\n", share);
  expect(share > 0.6 && share < 0.73, "about two thirds repeat or overlap earlier requests");

  // Classification on the real plans: repeats are always warm, fresh
  // requests always cold, and both classes are well populated.
  std::vector<std::vector<std::uint64_t>> hashes;
  for (const perfbench::ServeRequest& request : a) {
    hashes.push_back(
        perfbench::scenario_hashes(request, fpsched::engine::ExperimentRegistry::global()));
  }
  const std::vector<bool> warm = perfbench::classify_warm(hashes);
  std::size_t warm_count = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    warm_count += warm[i];
    if (a[i].origin == perfbench::ServeRequest::Origin::repeat) expect(warm[i], "repeats are warm");
    if (a[i].origin == perfbench::ServeRequest::Origin::fresh) expect(!warm[i], "fresh is cold");
  }
  std::printf("warm share %.3f\n", static_cast<double>(warm_count) / static_cast<double>(a.size()));
  expect(warm_count > a.size() / 3 && warm_count < 2 * a.size() / 3,
         "warm and cold both hold a third or more");
}

}  // namespace

int main() {
  percentile_rule();
  quartile_rule();
  classification();
  request_sequence();
  std::printf("%s (%d failures)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
