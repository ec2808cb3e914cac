// The 14 named heuristics of Section 5 and a runner for them.
//
// A heuristic = linearization strategy x checkpointing strategy:
//   {DF, BF, RF} x {CkptW, CkptC, CkptD, CkptPer}  (12, budget swept)
//   + DF-CkptNvr + DF-CkptAlws                     (2 baselines)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "dag/linearize.hpp"
#include "heuristics/sweep.hpp"

namespace fpsched {

struct HeuristicSpec {
  LinearizeMethod linearization = LinearizeMethod::depth_first;
  CkptStrategy checkpointing = CkptStrategy::by_weight;

  /// Paper-style name, e.g. "DF-CkptW".
  std::string name() const;
};

/// The paper's 14 heuristics, baselines first.
std::vector<HeuristicSpec> all_heuristics();

/// The 12 budgeted combinations only (no CkptNvr / CkptAlws).
std::vector<HeuristicSpec> budgeted_heuristics();

struct HeuristicOptions {
  LinearizeOptions linearize;
  SweepOptions sweep;
};

struct HeuristicResult {
  HeuristicSpec spec;
  Schedule schedule;
  Evaluation evaluation;
  std::size_t best_budget = 0;
  /// The full budget-vs-expected curve (budgeted strategies only).
  std::vector<SweepPoint> curve;
};

/// Runs one heuristic: linearize, place checkpoints (sweeping the budget
/// when applicable), and report the winner's Evaluation (built from the
/// sweep's own E[makespan], so per_task_expected stays empty). One-cell
/// evaluators only.
HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const HeuristicOptions& options = {});

/// As above, but with the linearization precomputed by the caller. `order`
/// must equal linearize(graph, weights, spec.linearization,
/// options.linearize); the engine's instance cache uses this to amortize
/// linearization work across the scenarios sharing an instance. Results
/// are bit-identical to the linearizing overload.
HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const std::vector<VertexId>& order,
                              const HeuristicOptions& options = {});

/// run_heuristic for every cell of `evaluator` at once: result[c] is cell
/// c's result, bit-identical to a one-cell run under that cell's model.
std::vector<HeuristicResult> run_heuristic_cells(const ScheduleEvaluator& evaluator,
                                                 const HeuristicSpec& spec,
                                                 const std::vector<VertexId>& order,
                                                 const HeuristicOptions& options = {});

/// Runs every heuristic in `specs` and returns results in the same order.
std::vector<HeuristicResult> run_heuristics(const ScheduleEvaluator& evaluator,
                                            const std::vector<HeuristicSpec>& specs,
                                            const HeuristicOptions& options = {});

/// Index of the result with the smallest expected makespan.
std::size_t best_result_index(const std::vector<HeuristicResult>& results);

}  // namespace fpsched
