#include "heuristics/sweep.hpp"

#include <utility>

#include "support/error.hpp"
#include "support/threading.hpp"

namespace fpsched {

void SweepOptions::validate() const {
  ensure(stride >= 1, "sweep stride must be >= 1");
}

SweepResult sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                    const std::vector<VertexId>& order, CkptStrategy strategy,
                                    const SweepOptions& options) {
  ensure(evaluator.cells().size() == 1,
         "sweep_checkpoint_budget scores one cell; use sweep_checkpoint_budget_cells");
  return std::move(sweep_checkpoint_budget_cells(evaluator, order, strategy, options).front());
}

std::vector<SweepResult> sweep_checkpoint_budget_cells(const ScheduleEvaluator& evaluator,
                                                       const std::vector<VertexId>& order,
                                                       CkptStrategy strategy,
                                                       const SweepOptions& options) {
  options.validate();
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  const std::size_t cells = evaluator.cells().size();
  ensure(order.size() == n, "order size must match the task count");

  // Validate the linearization once; the per-candidate evaluations skip it.
  validate_schedule(graph, make_schedule(order));
  const CheckpointRanking ranking(graph, order, strategy);

  // Budget grid: 1, 1+stride, ..., plus n-1 (paper: exhaustive 1..n-1).
  // Non-budgeted strategies have the single candidate of budget 0.
  std::vector<std::size_t> budgets;
  if (!is_budgeted(strategy)) {
    budgets.push_back(0);
  } else {
    if (options.include_zero) budgets.push_back(0);
    if (n >= 2) {
      for (std::size_t b = 1; b < n; b += options.stride) budgets.push_back(b);
      if (budgets.empty() || budgets.back() != n - 1) budgets.push_back(n - 1);
    } else {
      budgets.push_back(0);
    }
  }

  // expected[idx * cells + c]: candidate idx scored under cell c.
  std::vector<double> expected(budgets.size() * cells);
  std::vector<std::size_t> taken(budgets.size());  // checkpoints of candidate idx
  const auto evaluate_budget = [&](std::size_t idx, Schedule& candidate, EvaluatorWorkspace& ws) {
    ranking.place(budgets[idx], candidate.checkpointed);
    evaluator.expected_makespans(candidate, ws, {expected.data() + idx * cells, cells},
                                 /*validate=*/false, options.math);
    taken[idx] = candidate.checkpoint_count();
  };
  if (options.pool == nullptr || budgets.size() == 1) {
    EvaluatorWorkspace local_ws;
    EvaluatorWorkspace& ws = options.workspace ? *options.workspace : local_ws;
    Schedule candidate = make_schedule(order);
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) evaluate_budget(idx, candidate, ws);
  } else {
    // One task per budget, executed by whichever pool worker (or this
    // thread, via the cooperative wait) is idle. Tasks run on arbitrary
    // threads, so workspaces come from a free list; every candidate still
    // writes only its own slots, so any interleaving yields the same bits.
    WorkspacePool workspaces;
    TaskGroup group(*options.pool);
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) {
      group.run([&, idx] {
        WorkspacePool::Lease lease = workspaces.acquire();
        Schedule candidate = make_schedule(order);
        evaluate_budget(idx, candidate, lease.get());
      });
    }
    group.wait();
  }

  std::vector<SweepResult> results(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    SweepResult& result = results[c];
    result.curve.reserve(budgets.size());
    std::size_t best = 0;
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) {
      // A non-budgeted candidate reports the checkpoints it took as its budget.
      const std::size_t budget = is_budgeted(strategy) ? budgets[idx] : taken[idx];
      result.curve.push_back({budget, taken[idx], expected[idx * cells + c]});
      if (result.curve[idx].expected_makespan < result.curve[best].expected_makespan) best = idx;
    }
    result.best_budget = result.curve[best].budget;
    result.best_expected_makespan = result.curve[best].expected_makespan;
    result.best_schedule = make_schedule(order);
    ranking.place(budgets[best], result.best_schedule.checkpointed);
  }
  return results;
}

}  // namespace fpsched
