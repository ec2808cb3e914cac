// Accuracy and contract tests for the batched exp/expm1 kernels.
//
// The exact backend must be bitwise-identical to element-wise libm — it
// is the byte-determinism contract of every default run. The fast backend
// carries an explicit <= 4 ulp bound against libm, checked here over
// >= 10k random inputs per regime (broad range, large-negative, near
// zero, the overflow edge, denormal results, and expm1's series/exp
// switchover), plus the IEEE special values and in-place aliasing. Plain
// exp is checked through vexp_neg_mul with lambda = -1, whose argument
// -(-1.0) * x == x exactly. Every element of a sweep must also equal a
// 1-element call on the same argument, the property the evaluator's
// factor reuse rests on. The last test closes the loop at the evaluator
// level: a full fig2 --quick grid run under the fast backend must land
// within 1e-10 relative of the exact ratios.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/math_kernels.hpp"
#include "engine/experiment.hpp"
#include "engine/result_sink.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"

namespace fpsched {
namespace {

/// Maps a double onto the integers so that adjacent representable values
/// differ by exactly 1, -0.0 and +0.0 coincide, and infinity sits right
/// next to the largest finite value. ulp distance is then a subtraction.
std::int64_t ordered_bits(double value) {
  const std::int64_t bits = std::bit_cast<std::int64_t>(value);
  return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
}

std::int64_t ulp_distance(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return a_nan == b_nan ? 0 : std::numeric_limits<std::int64_t>::max();
  const std::int64_t delta = ordered_bits(a) - ordered_bits(b);
  return delta < 0 ? -delta : delta;
}

std::vector<double> uniform_samples(double lo, double hi, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> samples(count);
  for (double& x : samples) x = dist(rng);
  return samples;
}

constexpr std::size_t kSamplesPerRegime = 10000;
constexpr std::int64_t kMaxUlp = 4;
// vexp_neg_mul(kPlainExp, x) == exp(x): -(-1.0) * x is exactly x.
constexpr double kPlainExp = -1.0;

struct Regime {
  const char* name;
  double lo;
  double hi;
};

void expect_exp_regime(const Regime& regime) {
  const std::vector<double> x =
      uniform_samples(regime.lo, regime.hi, kSamplesPerRegime, 20250807);
  std::vector<double> fast(x.size());
  vexp_neg_mul(kPlainExp, x.data(), fast.data(), x.size(), EvalMath::fast);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t ulp = ulp_distance(fast[i], std::exp(x[i]));
    worst = std::max(worst, ulp);
    ASSERT_LE(ulp, kMaxUlp) << regime.name << ": exp(" << x[i] << ") fast=" << fast[i]
                            << " libm=" << std::exp(x[i]);
  }
  ::testing::Test::RecordProperty(std::string("worst_ulp_exp_") + regime.name,
                                  static_cast<int>(worst));
}

void expect_expm1_regime(const Regime& regime) {
  const std::vector<double> x =
      uniform_samples(regime.lo, regime.hi, kSamplesPerRegime, 20250808);
  std::vector<double> fast(x.size());
  vexpm1(x.data(), fast.data(), x.size(), EvalMath::fast);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t ulp = ulp_distance(fast[i], std::expm1(x[i]));
    worst = std::max(worst, ulp);
    ASSERT_LE(ulp, kMaxUlp) << regime.name << ": expm1(" << x[i] << ") fast=" << fast[i]
                            << " libm=" << std::expm1(x[i]);
  }
  ::testing::Test::RecordProperty(std::string("worst_ulp_expm1_") + regime.name,
                                  static_cast<int>(worst));
}

TEST(MathKernels, ExactBackendIsBitwiseLibm) {
  // One mixed pool covering every regime at once — exactness has no
  // regime structure, any input must round-trip through libm untouched.
  std::vector<double> x = uniform_samples(-746.0, 710.5, 4 * kSamplesPerRegime, 1);
  const std::vector<double> extra = uniform_samples(-1e-3, 1e-3, kSamplesPerRegime, 2);
  x.insert(x.end(), extra.begin(), extra.end());
  std::vector<double> out(x.size());

  vexp_neg_mul(kPlainExp, x.data(), out.data(), x.size(), EvalMath::exact);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]), std::bit_cast<std::uint64_t>(std::exp(x[i])));
  }
  vexpm1(x.data(), out.data(), x.size(), EvalMath::exact);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(std::expm1(x[i])));
  }
  const double lambda = 0.00137;
  vexp_neg_mul(lambda, x.data(), out.data(), x.size(), EvalMath::exact);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // The fused form must reproduce the evaluator's historical expression
    // shape exactly: exp((-lambda) * x), not exp(-(lambda * x)).
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(std::exp(-lambda * x[i])));
  }
}

TEST(MathKernels, FastExpWithinFourUlpPerRegime) {
  const Regime regimes[] = {
      {"broad", -700.0, 700.0},
      {"large_negative", -746.0, -600.0},
      {"near_zero", -1e-3, 1e-3},
      {"overflow_edge", 709.0, 710.5},
      {"denormal_result", -745.2, -708.5},
  };
  for (const Regime& regime : regimes) expect_exp_regime(regime);
}

TEST(MathKernels, FastExpm1WithinFourUlpPerRegime) {
  const Regime regimes[] = {
      {"broad", -30.0, 30.0},
      {"near_zero", -1e-6, 1e-6},
      {"tiny", -1e-300, 1e-300},
      {"switch_boundary_pos", 0.68, 0.71},
      {"switch_boundary_neg", -0.71, -0.68},
      {"large_negative", -746.0, -20.0},
      {"overflow_edge", 709.0, 710.5},
  };
  for (const Regime& regime : regimes) expect_expm1_regime(regime);
}

TEST(MathKernels, FastFusedNegMulWithinFourUlp) {
  // The evaluator's exp(-lambda * span) pattern: spans are nonnegative
  // work sums, lambdas span the paper's failure-rate grid.
  for (const double lambda : {1e-6, 1e-4, 1e-2, 0.5}) {
    const std::vector<double> x = uniform_samples(0.0, 5e4, kSamplesPerRegime, 99);
    std::vector<double> fast(x.size());
    vexp_neg_mul(lambda, x.data(), fast.data(), x.size(), EvalMath::fast);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_LE(ulp_distance(fast[i], std::exp(-lambda * x[i])), kMaxUlp)
          << "lambda=" << lambda << " x=" << x[i];
    }
  }
}

TEST(MathKernels, FastSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double x[] = {inf, -inf, nan, 0.0, -0.0, 710.5, -746.5, 709.8};
  double out[std::size(x)];

  vexp_neg_mul(kPlainExp, x, out, std::size(x), EvalMath::fast);
  EXPECT_EQ(out[0], inf);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_EQ(out[3], 1.0);
  EXPECT_EQ(out[4], 1.0);
  EXPECT_EQ(out[5], inf);   // past the clamp: saturates like libm
  EXPECT_EQ(out[6], 0.0);   // deep underflow
  EXPECT_EQ(out[7], inf);   // just past the real overflow threshold

  vexpm1(x, out, std::size(x), EvalMath::fast);
  EXPECT_EQ(out[0], inf);
  EXPECT_EQ(out[1], -1.0);
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_EQ(out[3], 0.0);
  EXPECT_EQ(out[4], 0.0);
  EXPECT_EQ(out[5], inf);
  EXPECT_EQ(out[6], -1.0);
}

TEST(MathKernels, SweepsAreInPlaceSafe) {
  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    const std::vector<double> x = uniform_samples(-50.0, 50.0, 4096, 7);
    std::vector<double> out(x.size());
    std::vector<double> aliased = x;
    vexpm1(x.data(), out.data(), x.size(), math);
    vexpm1(aliased.data(), aliased.data(), aliased.size(), math);
    EXPECT_EQ(out, aliased) << "vexpm1 " << to_string(math);

    for (const double lambda : {kPlainExp, 0.01}) {
      aliased = x;
      vexp_neg_mul(lambda, x.data(), out.data(), x.size(), math);
      vexp_neg_mul(lambda, aliased.data(), aliased.data(), aliased.size(), math);
      EXPECT_EQ(out, aliased) << "vexp_neg_mul lambda=" << lambda << " " << to_string(math);
    }
  }
}

TEST(MathKernels, SweepElementsEqualOneElementCalls) {
  // The evaluator memoizes factors from 1-element calls and reuses them in
  // later passes, so an element's bits must not depend on where it falls
  // in a sweep: vector body, scalar tail or alignment peel of a
  // target_clones body. Every length 1..67 and start offset 0..3 over a
  // pool interleaving the regimes above must match element-wise calls.
  std::vector<double> pool;
  const Regime regimes[] = {
      {"broad", -30.0, 30.0},          {"near_zero", -1e-6, 1e-6},
      {"switch", 0.68, 0.71},          {"large_negative", -746.0, -600.0},
      {"overflow_edge", 709.0, 710.5}, {"denormal_result", -745.2, -708.5},
  };
  std::uint64_t seed = 31;
  for (const Regime& regime : regimes) {
    const std::vector<double> part = uniform_samples(regime.lo, regime.hi, 12, seed++);
    pool.insert(pool.end(), part.begin(), part.end());
  }
  std::shuffle(pool.begin(), pool.end(), std::mt19937_64(seed));
  pool.insert(pool.end(), {0.0, -0.0, std::numeric_limits<double>::infinity()});
  ASSERT_GE(pool.size(), 67u + 3u);

  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  std::vector<double> swept(pool.size());
  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t length = 1; length <= 67; ++length) {
        const double* const x = pool.data() + offset;
        for (const double lambda : {kPlainExp, 0.01}) {
          vexp_neg_mul(lambda, x, swept.data(), length, math);
          for (std::size_t i = 0; i < length; ++i) {
            double one = 0.0;
            vexp_neg_mul(lambda, &x[i], &one, 1, math);
            ASSERT_EQ(bits(swept[i]), bits(one))
                << "vexp_neg_mul lambda=" << lambda << " " << to_string(math) << " x=" << x[i]
                << " at " << i << " of " << length << " offset " << offset;
          }
        }
        vexpm1(x, swept.data(), length, math);
        for (std::size_t i = 0; i < length; ++i) {
          double one = 0.0;
          vexpm1(&x[i], &one, 1, math);
          ASSERT_EQ(bits(swept[i]), bits(one))
              << "vexpm1 " << to_string(math) << " x=" << x[i] << " at " << i << " of " << length
              << " offset " << offset;
        }
      }
    }
  }
}

TEST(MathKernels, ParseAndFormat) {
  EXPECT_EQ(parse_eval_math("exact"), EvalMath::exact);
  EXPECT_EQ(parse_eval_math("fast"), EvalMath::fast);
  EXPECT_EQ(to_string(EvalMath::exact), "exact");
  EXPECT_EQ(to_string(EvalMath::fast), "fast");
  EXPECT_THROW(parse_eval_math("float"), InvalidArgument);
  EXPECT_THROW(parse_eval_math(""), InvalidArgument);
}

/// Collects the plotted metric of every scenario record of a run.
class RatioCollector : public engine::ResultSink {
 public:
  void record(const engine::ResultRecord& record) override {
    ratios.push_back(record.result.evaluation.ratio);
    makespans.push_back(record.result.evaluation.expected_makespan);
  }
  std::vector<double> ratios;
  std::vector<double> makespans;
};

TEST(MathKernels, FastBackendTracksExactAcrossFig2QuickGrid) {
  // End-to-end bound: per-call <= 4 ulp must stay <= 1e-10 relative after
  // the full O(n^2) Theorem-3 accumulation, for every scenario of the
  // fig2 --quick grid (all sizes, strategies and linearizations).
  using engine::ExperimentRegistry;
  using engine::FigureOptions;
  FigureOptions options;
  engine::apply_quick_options(options);
  options.threads = 1;
  const auto run_with = [&](EvalMath math) {
    FigureOptions o = options;
    o.eval_math = math;
    RatioCollector collector;
    engine::ResultSink* sinks[] = {&collector};
    engine::run_experiment(ExperimentRegistry::global().find("fig2"), o, sinks, nullptr);
    return collector;
  };
  const RatioCollector exact = run_with(EvalMath::exact);
  const RatioCollector fast = run_with(EvalMath::fast);
  ASSERT_FALSE(exact.ratios.empty());
  ASSERT_EQ(exact.ratios.size(), fast.ratios.size());
  for (std::size_t i = 0; i < exact.ratios.size(); ++i) {
    EXPECT_LE(relative_difference(exact.ratios[i], fast.ratios[i]), 1e-10) << "record " << i;
    EXPECT_LE(relative_difference(exact.makespans[i], fast.makespans[i]), 1e-10)
        << "record " << i;
  }
}

}  // namespace
}  // namespace fpsched
