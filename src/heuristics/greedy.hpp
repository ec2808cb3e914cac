// Extension beyond the paper: evaluator-guided greedy checkpoint insertion.
//
// The paper's budgeted strategies pick *which* tasks to checkpoint from a
// static ranking (weight / cost / outweight) and only search the budget N.
// With the fast Theorem-3 evaluator, a stronger search becomes practical:
// start from the empty checkpoint set and repeatedly insert (or remove)
// the single checkpoint with the largest expected-makespan improvement,
// stopping when no move helps. This is our own addition (not in the
// paper); the optimality_gap study compares it against the 14 paper
// heuristics and the exact optimum.
#pragma once

#include <cstddef>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"

namespace fpsched {

class ThreadPool;

struct GreedyOptions {
  /// Upper bound on insert/remove rounds (0 = no bound beyond n rounds).
  std::size_t max_rounds = 0;
  /// Stop when the best move improves by less than this relative amount.
  double min_relative_gain = 1e-12;
  /// Also consider removing previously inserted checkpoints each round.
  bool allow_removal = true;
  /// Pool for the per-round candidate scan; null = serial. The result is
  /// the same either way.
  ThreadPool* pool = nullptr;
};

struct GreedyResult {
  Schedule schedule;
  double expected_makespan = 0.0;
  std::size_t rounds = 0;
  /// expected makespan after each accepted move (first entry = no
  /// checkpoints).
  std::vector<double> trajectory;
};

/// Greedy local search over checkpoint sets for a fixed linearization.
/// Each round evaluates every candidate move with the analytic evaluator
/// (one task per move on `options.pool`) and applies the best. Complexity: O(rounds * n)
/// evaluations.
GreedyResult greedy_checkpoint_search(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order,
                                      const GreedyOptions& options = {});

}  // namespace fpsched
