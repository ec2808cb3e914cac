#include "heuristics/greedy.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"
#include "support/threading.hpp"

namespace fpsched {

GreedyResult greedy_checkpoint_search(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order,
                                      const GreedyOptions& options) {
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(order.size() == n, "order size must match the task count");

  Schedule current = make_schedule(order);
  validate_schedule(graph, current);

  // One workspace per pool slot (the serial scan uses the single one).
  ThreadPool* const pool = options.pool;
  std::vector<EvaluatorWorkspace> workspaces(pool != nullptr ? pool->size() + 1 : 1);

  GreedyResult result;
  result.expected_makespan =
      evaluator.expected_makespan(current, workspaces.back(), /*validate=*/false);
  result.trajectory.push_back(result.expected_makespan);

  const std::size_t round_limit = options.max_rounds == 0 ? n + 1 : options.max_rounds;
  std::vector<double> candidate_value(n);
  for (std::size_t round = 0; round < round_limit; ++round) {
    // Evaluate every single-flip neighbour (insert where absent, remove
    // where present if allowed).
    const auto score = [&](std::size_t v) {
      const bool flagged = current.checkpointed[v] != 0;
      if (flagged && !options.allow_removal) {
        candidate_value[v] = std::numeric_limits<double>::infinity();
        return;
      }
      Schedule candidate = current;
      candidate.checkpointed[v] = flagged ? 0 : 1;
      EvaluatorWorkspace& ws = workspaces[pool != nullptr ? pool->slot() : 0];
      candidate_value[v] = evaluator.expected_makespan(candidate, ws, /*validate=*/false);
    };
    if (pool == nullptr) {
      for (std::size_t v = 0; v < n; ++v) score(v);
    } else {
      TaskGroup group(*pool);
      for (std::size_t v = 0; v < n; ++v) group.run([&score, v] { score(v); });
      group.wait();
    }

    std::size_t best = n;
    double best_value = result.expected_makespan;
    for (std::size_t v = 0; v < n; ++v) {
      if (candidate_value[v] < best_value) {
        best_value = candidate_value[v];
        best = v;
      }
    }
    if (best == n) break;  // no improving move
    const double gain = (result.expected_makespan - best_value) /
                        std::max(result.expected_makespan, 1e-300);
    if (gain < options.min_relative_gain) break;
    current.checkpointed[best] ^= 1;
    result.expected_makespan = best_value;
    result.trajectory.push_back(best_value);
    ++result.rounds;
  }

  result.schedule = std::move(current);
  return result;
}

}  // namespace fpsched
