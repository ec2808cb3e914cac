#include "sim/trial_runner.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/threading.hpp"

namespace fpsched {

bool MonteCarloSummary::consistent_with(double value, double slack) const {
  const double half = makespan.ci95_halfwidth() + slack * makespan.standard_error();
  return std::fabs(value - makespan.mean()) <= half;
}

namespace {

MonteCarloSummary run_trials_impl(const FaultSimulator& simulator,
                                  const FaultDistribution* faults, const TrialOptions& options) {
  // Each trial writes its outcome to its own slot; the slots are then
  // pushed in trial order, which makes the floating-point accumulation
  // independent of which thread ran which trial. Trials are processed in
  // batches to bound the slot memory.
  constexpr std::size_t kBatch = std::size_t{1} << 16;
  constexpr std::size_t kChunk = 64;  // trials per task
  struct Outcome {
    double makespan = 0.0;
    double failures = 0.0;
    double wasted = 0.0;
  };
  const Rng root(options.seed);
  std::vector<Outcome> outcomes(std::min(options.trials, kBatch));
  const auto simulate = [&](std::size_t first, std::size_t begin, std::size_t end) {
    for (std::size_t trial = begin; trial < end; ++trial) {
      Rng rng = root.fork(trial);
      const SimResult result =
          faults ? simulator.run_with_distribution(rng, *faults) : simulator.run(rng);
      outcomes[trial - first] = {result.makespan, static_cast<double>(result.failure_count),
                                 result.wasted_time};
    }
  };

  MonteCarloSummary summary;
  for (std::size_t first = 0; first < options.trials; first += kBatch) {
    const std::size_t last = std::min(options.trials, first + kBatch);
    if (options.pool == nullptr) {
      simulate(first, first, last);
    } else {
      TaskGroup group(*options.pool);
      for (std::size_t begin = first; begin < last; begin += kChunk) {
        group.run([&simulate, first, begin, last] {
          simulate(first, begin, std::min(begin + kChunk, last));
        });
      }
      group.wait();
    }
    for (std::size_t trial = first; trial < last; ++trial) {
      const Outcome& outcome = outcomes[trial - first];
      summary.makespan.push(outcome.makespan);
      summary.failures.push(outcome.failures);
      summary.wasted_time.push(outcome.wasted);
    }
  }
  return summary;
}

}  // namespace

MonteCarloSummary run_trials(const FaultSimulator& simulator, const TrialOptions& options) {
  return run_trials_impl(simulator, nullptr, options);
}

MonteCarloSummary run_trials_with_distribution(const FaultSimulator& simulator,
                                               const FaultDistribution& faults,
                                               const TrialOptions& options) {
  return run_trials_impl(simulator, &faults, options);
}

}  // namespace fpsched
