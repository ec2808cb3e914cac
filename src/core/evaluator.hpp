// Expected-makespan evaluation of a schedule (Theorem 3 of the paper).
//
// Notation (tasks renumbered in linearization order, positions 0..n-1):
//  * X_i  = time between the first successful completions of tasks i-1
//           and i;
//  * Z^i_k = "the last failure before X_i happened during X_k" (k = -1
//           denotes "no failure so far");
//  * T|k_i = the set of predecessors of task i whose output was lost by
//           that failure and is still needed: checkpointed members
//           contribute their recovery cost, non-checkpointed members must
//           be re-executed (and their own predecessors examined in turn);
//  * L^i_k = total lost-work cost (W^i_k + R^i_k in the paper).
//
// Then E[makespan] = sum_i sum_k P(Z^i_k) E[t(L^i_k + w_i; d_i c_i;
// L^i_i - L^i_k)] with E[t] from Eq. (1). The paper evaluates the L table
// with Algorithm 1 in O(n^3) per failure position (O(n^4) total); this
// implementation is an exact algebraic equivalent in O(n*E + n^2) time and
// O(n + E) transient space:
//  * a `recovered` epoch array replaces the n x n `tab_k` state matrix
//    (during pass k a task enters at most one T|k_i);
//  * probabilities stream in the same k-major order using
//    P(Z^i_k) = exp(-lambda * S^i_k) P(Z^{k+1}_k), where S^i_k accumulates
//    L^j_k + w_j + d_j c_j over k < j < i, and P(Z^{k+1}_k) =
//    1 - sum_{k'<k} P(Z^{k+1}_{k'}) (property B of Theorem 3);
//  * the factor e^{lambda L^i_i}, which depends on the k = i pass, is
//    applied after the k loop.
//
// The paper-faithful O(n^4) transcription lives in evaluator_naive.hpp and
// the two are cross-checked on randomized DAGs by the test suite.
//
// Everything above except the final factor (1/lambda + D) is a function of
// lambda alone, and the lost-work walk producing L and S is a function of
// neither lambda nor D. One call therefore scores a schedule for a whole
// family of failure models ("cells", see ScheduleEvaluator) with one walk.
//
// One evaluation is serial: parallelism lives one level up, where the
// budget sweep (heuristics/sweep.hpp) scores its candidates as tasks on a
// shared ThreadPool, each with its own workspace.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/sync.hpp"

#include "core/failure_model.hpp"
#include "core/math_kernels.hpp"
#include "core/schedule.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched {

/// Result of evaluating one schedule.
struct Evaluation {
  /// E[makespan]; +inf when the schedule essentially never finishes under
  /// the model (overflow of Eq. (1) for a failure-dominated segment).
  double expected_makespan = 0.0;
  /// Execution time with zero failures but all scheduled checkpoints.
  double fault_free_time = 0.0;
  /// T_inf of the paper: failure-free and checkpoint-free time (sum w_i).
  double total_weight = 0.0;
  /// expected_makespan / total_weight — the paper's plotted metric.
  double ratio = 0.0;
  std::size_t checkpoint_count = 0;
  /// E[X_i] by schedule position.
  std::vector<double> per_task_expected;
};

/// Scratch buffers reused across evaluations; one per concurrent
/// evaluation. Memory is O(lanes * n): one LaneScratch per distinct
/// positive lambda of the evaluator's cells, never an n x n table.
class EvaluatorWorkspace {
 public:
  EvaluatorWorkspace() = default;

 private:
  friend class ScheduleEvaluator;

  /// Numeric state of one lane (one distinct lambda > 0; every cell with
  /// that lambda shares it, only the combine tail runs per downtime).
  /// Each pass sweeps q = e^{-lambda S^i_k} out of the shared span array
  /// (from element 0, so every lane's sweep sees the inputs a one-cell
  /// evaluation would), then scores its records in one loop. A record with
  /// L^i_k == 0 reuses the memoized expm1_wc[i]; one with L^i_k > 0 uses
  /// the factors e^{-lambda L} and expm1(lambda (L + w_i + delta_i c_i))
  /// memoized for position i, recomputing them (1-element kernel calls)
  /// only when L differs from the memo_l[i] they were computed for. The
  /// factors are pure functions of (lambda, L, i), so a hit is
  /// bit-identical to a recompute; memo_l is reset by every resize().
  struct LaneScratch {
    std::vector<double> accum;     // B[i]: sum of conditional terms
    std::vector<double> sum_prob;  // sum over processed k of P(Z^i_k)
    std::vector<double> expm1_wc;  // expm1(lambda (w_i + delta_i c_i))
    std::vector<double> q;         // e^{-lambda S^i_k} of the current pass
    std::vector<double> memo_l;    // L the memoized factors of i belong to (0: none)
    std::vector<double> memo_a;    // e^{-lambda memo_l[i]}
    std::vector<double> memo_b;    // expm1(lambda (memo_l[i] + w_i + delta_i c_i))
    double base = 0.0;             // P(Z^{k+1}_k) of the current pass
    std::size_t staged_passes = 0;  // each staged pass runs one q sweep
  };

  std::vector<double> work;        // w by position
  std::vector<double> ckpt;        // delta_i * c_i by position
  std::vector<double> recovery;    // r by position
  std::vector<std::uint8_t> flag;  // checkpoint flag by position
  std::vector<std::uint32_t> pred_offsets;
  std::vector<std::uint32_t> pred_list;  // predecessor positions, CSR
  std::vector<std::uint32_t> pred_fill;  // CSR fill cursor, one per position
  std::vector<std::uint32_t> position;   // vertex id -> position
  std::vector<double> self_loss;         // L^i_i
  std::vector<std::int32_t> recovered_at;  // DFS epoch marks of the walk
  std::vector<std::uint32_t> dfs_stack;    // n + 1 slots (see the walk)
  // The current pass's walk output, row j = position k + 1 + j; every
  // live lane reads both in place.
  std::vector<double> span;  // S^i_k
  std::vector<double> lost;  // L^i_k
  std::vector<LaneScratch> lanes;  // grows to the widest family seen

  void resize(std::size_t n, std::size_t edges, std::size_t lane_count);
};

/// Thread-safe free list of evaluator workspaces, for task-parallel
/// callers whose tasks run on whichever pool thread is idle and that keep
/// no per-slot state (see ThreadPool::slot). acquire() pops a free
/// workspace or creates one; the Lease returns it on destruction. A
/// workspace is only ever leased to one task at a time, so the usual
/// exclusive-use contract of EvaluatorWorkspace holds.
///
/// Lifetime contract: every Lease must be destroyed before its pool —
/// the Lease destructor takes the pool mutex to return the workspace, so
/// a lease outliving the pool is a use-after-free. In the engine this
/// holds because leases live only inside pool tasks that are joined
/// (TaskGroup::wait) before the sweep's WorkspacePool dies, but the
/// ordering is easy to break silently when restructuring teardown; the
/// pool destructor therefore counts outstanding leases and aborts with a
/// diagnostic instead of letting the stale unlock corrupt memory. (An
/// assert would vanish under NDEBUG, which is exactly when the corruption
/// would go unnoticed.)
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<EvaluatorWorkspace> workspace)
        : pool_(pool), workspace_(std::move(workspace)) {}
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    EvaluatorWorkspace& get() { return *workspace_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<EvaluatorWorkspace> workspace_;
  };

  ~WorkspacePool();

  Lease acquire();

 private:
  Mutex mutex_;
  std::vector<std::unique_ptr<EvaluatorWorkspace>> free_ GUARDED_BY(mutex_);
  std::size_t outstanding_ GUARDED_BY(mutex_) = 0;  // leases not yet returned
};

/// Evaluates schedules for one task graph under one or more failure
/// models ("cells"). The lost-work walk and the spans S^i_k depend only on
/// the order, the checkpoint flags and w, c, r — never on lambda or D —
/// so one call walks the schedule once per pass and then runs, for every
/// cell still live at that pass, the cell's q sweep and scoring loop.
/// Cells sharing a lambda share those outright (a "lane"); only the O(n)
/// combine tail, where rate_factor = 1/lambda + D enters, runs per cell.
/// Each cell performs exactly the floating-point operations of a one-cell
/// evaluation, in the same order, so a K-cell call is bit-identical to K
/// one-cell calls under either math backend.
///
/// The object is immutable after construction and safe to share across
/// threads; concurrent calls must pass distinct workspaces.
class ScheduleEvaluator {
 public:
  /// The one-cell evaluator.
  ScheduleEvaluator(const TaskGraph& graph, FailureModel model);
  /// A family of cells (non-empty), scored together by expected_makespans.
  ScheduleEvaluator(const TaskGraph& graph, std::vector<FailureModel> cells);

  const TaskGraph& graph() const { return *graph_; }
  /// The first cell's model (the model of a one-cell evaluator).
  const FailureModel& model() const { return cells_.front(); }
  std::span<const FailureModel> cells() const { return cells_; }

  /// Full evaluation (validates the schedule); one-cell evaluators only.
  /// `math` selects the transcendental backend exactly as for
  /// expected_makespan.
  Evaluation evaluate(const Schedule& schedule) const;
  Evaluation evaluate(const Schedule& schedule, EvaluatorWorkspace& ws,
                      EvalMath math = EvalMath::exact) const;

  /// Fast path returning only E[makespan]; one-cell evaluators only.
  /// `validate` can be disabled when the caller constructed the schedule
  /// from a known-valid linearization. `math` is the transcendental
  /// backend of the batched sweeps (see math_kernels.hpp): `exact` (the
  /// default) is bit-identical to element-wise libm, `fast` trades <= 4
  /// ulp per kernel call for throughput.
  double expected_makespan(const Schedule& schedule, EvaluatorWorkspace& ws,
                           bool validate = true, EvalMath math = EvalMath::exact) const;

  /// E[makespan] under every cell: out[c] for cells()[c]; out.size() must
  /// equal the cell count. Same contract as expected_makespan otherwise.
  void expected_makespans(const Schedule& schedule, EvaluatorWorkspace& ws,
                          std::span<double> out, bool validate = true,
                          EvalMath math = EvalMath::exact) const;

 private:
  /// Cells sharing one lambda > 0, in first-appearance order, with each
  /// cell's 1/lambda + D.
  struct Lane {
    double lambda = 0.0;
    std::vector<std::uint32_t> cells;
    std::vector<double> rate_factors;
  };

  void run(const Schedule& schedule, EvaluatorWorkspace& ws, std::span<double> totals,
           std::vector<double>* per_task, EvalMath math) const;

  const TaskGraph* graph_;
  std::vector<FailureModel> cells_;
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> failure_free_cells_;  // lambda == 0
};

/// The Evaluation of `schedule` given its E[makespan]: adds the
/// fault-free time, T_inf, ratio and checkpoint count (everything but
/// per_task_expected). Lets a caller that already holds the expectation
/// (a budget sweep's winner) skip a second Theorem-3 evaluation.
Evaluation summarize_evaluation(const TaskGraph& graph, const Schedule& schedule,
                                double expected_makespan);

}  // namespace fpsched
