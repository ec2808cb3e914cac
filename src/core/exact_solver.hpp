// Exact optimal solver for small instances of DAG-ChkptSched.
//
// The problem is NP-complete (Theorem 2), so no polynomial algorithm is
// expected; for small graphs, however, exhaustive search is feasible and
// gives the library something the paper does not have: a ground-truth
// optimum to measure the heuristics' optimality gap against (the paper
// can only compare heuristics with each other).
//
// Two search modes:
//  * fixed order  — enumerate the 2^n checkpoint subsets for a given
//    linearization (n <= ~20);
//  * full         — additionally enumerate every linearization of the DAG
//    by backtracking over ready sets (use only for tiny / narrow graphs;
//    the linearization count is capped and exceeding it throws).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"

namespace fpsched {

class ThreadPool;

struct ExactSolverOptions {
  /// Hard cap on task count (2^n subsets are enumerated per order).
  std::size_t max_tasks = 20;
  /// Full mode only: abort when the DAG has more linearizations than this.
  std::uint64_t max_linearizations = 200000;
  /// Pool for the subset scan; null = serial. The result is the same
  /// either way.
  ThreadPool* pool = nullptr;
};

struct ExactSolution {
  Schedule schedule;
  double expected_makespan = 0.0;
  std::uint64_t schedules_evaluated = 0;
  std::uint64_t linearizations_seen = 0;
};

/// Optimal checkpoint set for a fixed linearization (exhaustive over the
/// 2^n subsets, evaluated with Theorem 3, in chunks on `options.pool`).
ExactSolution solve_exact_fixed_order(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order,
                                      const ExactSolverOptions& options = {});

/// Global optimum over both decisions: every linearization x every
/// checkpoint subset. Exponential in both dimensions; intended for
/// n <= ~10.
ExactSolution solve_exact(const ScheduleEvaluator& evaluator,
                          const ExactSolverOptions& options = {});

/// Enumerates every linearization of `dag`, invoking `visit` for each.
/// Returns the number of linearizations. Throws when the count exceeds
/// `limit` (0 = unlimited). Deterministic order (ready tasks tried in
/// ascending id).
std::uint64_t for_each_linearization(const Dag& dag,
                                     const std::function<void(const std::vector<VertexId>&)>& visit,
                                     std::uint64_t limit = 0);

/// Just the count (same traversal, no callback work).
std::uint64_t count_linearizations(const Dag& dag, std::uint64_t limit = 0);

}  // namespace fpsched
