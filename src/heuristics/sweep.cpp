#include "heuristics/sweep.hpp"

#include "support/error.hpp"
#include "support/threading.hpp"

namespace fpsched {

void SweepOptions::validate() const {
  ensure(stride >= 1, "sweep stride must be >= 1");
}

SweepResult sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                    const std::vector<VertexId>& order, CkptStrategy strategy,
                                    const SweepOptions& options) {
  options.validate();
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(order.size() == n, "order size must match the task count");

  // Validate the linearization once; the per-candidate evaluations skip it.
  validate_schedule(graph, make_schedule(order));

  EvaluatorWorkspace local_ws;
  EvaluatorWorkspace& serial_ws = options.workspace ? *options.workspace : local_ws;

  SweepResult result;
  if (!is_budgeted(strategy)) {
    Schedule schedule = make_heuristic_schedule(graph, order, strategy, 0);
    result.best_expected_makespan =
        evaluator.expected_makespan(schedule, serial_ws, /*validate=*/false, options.math);
    result.best_budget = schedule.checkpoint_count();
    result.curve.push_back(
        {result.best_budget, schedule.checkpoint_count(), result.best_expected_makespan});
    result.best_schedule = std::move(schedule);
    return result;
  }

  // Budget grid: 1, 1+stride, ..., plus n-1 (paper: exhaustive 1..n-1).
  std::vector<std::size_t> budgets;
  if (options.include_zero) budgets.push_back(0);
  if (n >= 2) {
    for (std::size_t b = 1; b < n; b += options.stride) budgets.push_back(b);
    if (budgets.empty() || budgets.back() != n - 1) budgets.push_back(n - 1);
  } else {
    budgets.push_back(0);
  }

  std::vector<SweepPoint> points(budgets.size());
  std::vector<Schedule> schedules(budgets.size());

  const auto evaluate_budget = [&](std::size_t idx, EvaluatorWorkspace& ws) {
    Schedule schedule = make_heuristic_schedule(graph, order, strategy, budgets[idx]);
    const double expected =
        evaluator.expected_makespan(schedule, ws, /*validate=*/false, options.math);
    points[idx] = {budgets[idx], schedule.checkpoint_count(), expected};
    schedules[idx] = std::move(schedule);
  };
  if (options.pool == nullptr) {
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) evaluate_budget(idx, serial_ws);
  } else {
    // One task per budget, executed by whichever pool worker (or this
    // thread, via the cooperative wait) is idle. Tasks run on arbitrary
    // threads, so workspaces come from a free list; every candidate still
    // writes only its own slot, so any interleaving yields the same bits.
    WorkspacePool workspaces;
    TaskGroup group(*options.pool);
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) {
      group.run([&, idx] {
        WorkspacePool::Lease lease = workspaces.acquire();
        evaluate_budget(idx, lease.get());
      });
    }
    group.wait();
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].expected_makespan < points[best].expected_makespan) best = i;
  }
  result.best_budget = points[best].budget;
  result.best_expected_makespan = points[best].expected_makespan;
  result.best_schedule = std::move(schedules[best]);
  result.curve = std::move(points);
  return result;
}

}  // namespace fpsched
