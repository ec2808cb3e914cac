#include "heuristics/heuristic.hpp"

#include <utility>

#include "support/error.hpp"

namespace fpsched {

std::string HeuristicSpec::name() const {
  return to_string(linearization) + "-" + to_string(checkpointing);
}

std::vector<HeuristicSpec> all_heuristics() {
  std::vector<HeuristicSpec> specs;
  specs.push_back({LinearizeMethod::depth_first, CkptStrategy::never});
  specs.push_back({LinearizeMethod::depth_first, CkptStrategy::always});
  for (const HeuristicSpec& spec : budgeted_heuristics()) specs.push_back(spec);
  return specs;
}

std::vector<HeuristicSpec> budgeted_heuristics() {
  std::vector<HeuristicSpec> specs;
  for (const LinearizeMethod lin : all_linearize_methods()) {
    for (const CkptStrategy ck : {CkptStrategy::by_weight, CkptStrategy::by_cost,
                                  CkptStrategy::by_outweight, CkptStrategy::periodic}) {
      specs.push_back({lin, ck});
    }
  }
  return specs;
}

HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const HeuristicOptions& options) {
  const TaskGraph& graph = evaluator.graph();
  const std::vector<VertexId> order =
      linearize(graph.dag(), graph.weights_view(), spec.linearization, options.linearize);
  return run_heuristic(evaluator, spec, order, options);
}

HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const std::vector<VertexId>& order,
                              const HeuristicOptions& options) {
  ensure(evaluator.cells().size() == 1, "run_heuristic scores one cell; use run_heuristic_cells");
  return std::move(run_heuristic_cells(evaluator, spec, order, options).front());
}

std::vector<HeuristicResult> run_heuristic_cells(const ScheduleEvaluator& evaluator,
                                                 const HeuristicSpec& spec,
                                                 const std::vector<VertexId>& order,
                                                 const HeuristicOptions& options) {
  std::vector<SweepResult> sweeps =
      sweep_checkpoint_budget_cells(evaluator, order, spec.checkpointing, options.sweep);
  std::vector<HeuristicResult> results(sweeps.size());
  for (std::size_t c = 0; c < sweeps.size(); ++c) {
    SweepResult& sweep = sweeps[c];
    HeuristicResult& result = results[c];
    result.spec = spec;
    result.best_budget = sweep.best_budget;
    result.curve = std::move(sweep.curve);
    // The sweep scored the winner with the same code and math backend as
    // evaluate() would, so its E[makespan] is the Evaluation's, bit for bit.
    result.evaluation =
        summarize_evaluation(evaluator.graph(), sweep.best_schedule, sweep.best_expected_makespan);
    result.schedule = std::move(sweep.best_schedule);
  }
  return results;
}

std::vector<HeuristicResult> run_heuristics(const ScheduleEvaluator& evaluator,
                                            const std::vector<HeuristicSpec>& specs,
                                            const HeuristicOptions& options) {
  std::vector<HeuristicResult> results;
  results.reserve(specs.size());
  for (const HeuristicSpec& spec : specs) results.push_back(run_heuristic(evaluator, spec, options));
  return results;
}

std::size_t best_result_index(const std::vector<HeuristicResult>& results) {
  ensure(!results.empty(), "best_result_index needs at least one result");
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].evaluation.expected_makespan < results[best].evaluation.expected_makespan)
      best = i;
  }
  return best;
}

}  // namespace fpsched
