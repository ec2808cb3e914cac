// Exhaustive checkpoint-budget sweep (Section 5).
//
// The budgeted strategies (CkptW/C/D/Per) fix the number of checkpoints N
// and the paper searches N = 1..n-1 exhaustively, evaluating each
// candidate schedule with the Theorem-3 evaluator and keeping the best.
// The sweep is embarrassingly parallel over N; each worker reuses a
// private evaluator workspace. A stride > 1 subsamples the N grid. The
// budget curve is flat near its optimum, so large strides lose little
// quality (stride 64 on CyberShake, n = 100..700: <= 0.007% of E).
//
// The strategy's ranking is computed once per sweep (CheckpointRanking) and
// every candidate takes its flags from it. Each candidate is built once and
// scored for every cell of the evaluator in one call; each cell keeps its
// own argmin, so a K-cell sweep yields the K SweepResults of K one-cell
// sweeps, bit for bit.
//
// With `pool` set, each budget is a task of one TaskGroup on that pool:
// the calling thread evaluates candidates itself through the cooperative
// wait while idle pool workers steal the rest. Without a pool the
// candidates run serially on the caller's workspace. Both give the same
// bits: every candidate writes to its own slot and each evaluation is a
// pure function of its schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"
#include "heuristics/checkpoint_strategy.hpp"

namespace fpsched {

class ThreadPool;

struct SweepOptions {
  /// Evaluate budgets 1, 1+stride, 1+2*stride, ...; n-1 is always included.
  std::size_t stride = 1;
  /// Also evaluate N = 0 (no checkpoints). The paper sweeps 1..n-1 only;
  /// keeping 0 off by default stays faithful.
  bool include_zero = false;
  /// Optional caller-owned scratch reused when the sweep runs serially
  /// (no pool) and for the non-budgeted single-candidate path — lets an
  /// outer scenario task pass its pool slot's workspace. Budget tasks on
  /// a pool lease workspaces from a WorkspacePool instead.
  EvaluatorWorkspace* workspace = nullptr;
  /// Pool to score the budget candidates on; null = serial.
  ThreadPool* pool = nullptr;
  /// Transcendental backend of every candidate evaluation (forwarded to
  /// ScheduleEvaluator::expected_makespan).
  EvalMath math = EvalMath::exact;

  /// Throws InvalidArgument unless the options are well formed
  /// (stride >= 1; 0 would loop forever on the budget grid).
  void validate() const;
};

struct SweepPoint {
  std::size_t budget = 0;
  /// Checkpoints actually taken (periodic may take fewer than the budget).
  std::size_t checkpoints = 0;
  double expected_makespan = 0.0;
};

struct SweepResult {
  std::size_t best_budget = 0;
  double best_expected_makespan = 0.0;
  Schedule best_schedule;
  /// One point per evaluated budget, ascending.
  std::vector<SweepPoint> curve;
};

/// Sweeps the checkpoint budget for a budgeted strategy on a fixed
/// linearization. For non-budgeted strategies returns the single candidate.
/// One-cell evaluators only.
SweepResult sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                    const std::vector<VertexId>& order, CkptStrategy strategy,
                                    const SweepOptions& options = {});

/// The same sweep for every cell of `evaluator`: result[c] is cell c's
/// sweep. Each candidate is placed and evaluated once for all cells.
std::vector<SweepResult> sweep_checkpoint_budget_cells(const ScheduleEvaluator& evaluator,
                                                       const std::vector<VertexId>& order,
                                                       CkptStrategy strategy,
                                                       const SweepOptions& options = {});

}  // namespace fpsched
