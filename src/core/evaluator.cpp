#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/math_kernels.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace fpsched {

namespace {

// Telemetry only: relaxed counters cached once per process (see
// obs/metrics.hpp for the never-perturbs-determinism contract).
struct EvalMetrics {
  obs::Counter& runs;
  obs::Counter& walks;
  obs::Counter& sweeps;
  obs::Counter& lost_terms;
  obs::Counter& lost_recomputed;
};

EvalMetrics& eval_metrics() {
  static EvalMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new EvalMetrics{
        reg.counter("fpsched_eval_runs_total",
                    "Theorem 3 evaluations (one per failure-model cell scored)"),
        reg.counter("fpsched_eval_walks_total",
                    "lost-work walks (one per schedule, shared by the cells with lambda > 0)"),
        reg.counter("fpsched_eval_kernel_sweeps_total",
                    "batched exp/expm1 kernel sweeps (2 per lane, plus 1 per live pass per lane)"),
        reg.counter("fpsched_eval_lost_terms_total",
                    "Theorem 3 terms with lost work (L > 0) and nonzero probability"),
        reg.counter("fpsched_eval_lost_terms_recomputed_total",
                    "lost-work terms whose factors were recomputed, not reused from a pass")};
  }();
  return *metrics;
}

}  // namespace

void EvaluatorWorkspace::resize(std::size_t n, std::size_t edges, std::size_t lane_count) {
  work.resize(n);
  ckpt.resize(n);
  recovery.resize(n);
  flag.resize(n);
  pred_offsets.assign(n + 1, 0);
  pred_list.resize(edges);
  pred_fill.resize(n);
  position.resize(n);
  self_loss.assign(n, 0.0);
  recovered_at.resize(n);
  dfs_stack.resize(n + 1);
  span.resize(n);
  lost.resize(n);
  if (lanes.size() < lane_count) lanes.resize(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneScratch& lane = lanes[l];
    lane.accum.assign(n, 0.0);
    lane.sum_prob.assign(n, 0.0);
    lane.expm1_wc.resize(n);
    lane.q.resize(n);
    lane.memo_l.assign(n, 0.0);  // L > 0 on every lookup, so 0 never hits
    lane.memo_a.resize(n);
    lane.memo_b.resize(n);
    lane.staged_passes = 0;
  }
}

WorkspacePool::Lease::~Lease() {
  if (workspace_ != nullptr) {
    const LockGuard lock(pool_->mutex_);
    pool_->free_.push_back(std::move(workspace_));
    --pool_->outstanding_;
  }
}

WorkspacePool::~WorkspacePool() {
  const LockGuard lock(mutex_);
  if (outstanding_ != 0) {
    // A live Lease would unlock a destroyed mutex and push into a
    // destroyed vector; fail loudly instead (see the header contract).
    std::fprintf(stderr,
                 "WorkspacePool destroyed with %zu outstanding lease(s); "
                 "every Lease must be returned before the pool dies\n",
                 outstanding_);
    std::abort();
  }
}

WorkspacePool::Lease WorkspacePool::acquire() {
  std::unique_ptr<EvaluatorWorkspace> workspace;
  {
    const LockGuard lock(mutex_);
    if (!free_.empty()) {
      workspace = std::move(free_.back());
      free_.pop_back();
    }
    ++outstanding_;
  }
  if (workspace == nullptr) workspace = std::make_unique<EvaluatorWorkspace>();
  return Lease(this, std::move(workspace));
}

ScheduleEvaluator::ScheduleEvaluator(const TaskGraph& graph, FailureModel model)
    : ScheduleEvaluator(graph, std::vector<FailureModel>{model}) {}

ScheduleEvaluator::ScheduleEvaluator(const TaskGraph& graph, std::vector<FailureModel> cells)
    : graph_(&graph), cells_(std::move(cells)) {
  ensure(!cells_.empty(), "an evaluator needs at least one failure-model cell");
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const double lambda = cells_[c].lambda();
    const auto cell = static_cast<std::uint32_t>(c);
    if (lambda == 0.0) {
      failure_free_cells_.push_back(cell);
      continue;
    }
    const auto lane = std::find_if(lanes_.begin(), lanes_.end(),
                                   [&](const Lane& l) { return l.lambda == lambda; });
    // rate_factor = 1/lambda + D, the one place the downtime enters.
    const double rate_factor = 1.0 / lambda + cells_[c].downtime();
    if (lane != lanes_.end()) {
      lane->cells.push_back(cell);
      lane->rate_factors.push_back(rate_factor);
    } else {
      lanes_.push_back({lambda, {cell}, {rate_factor}});
    }
  }
}

Evaluation ScheduleEvaluator::evaluate(const Schedule& schedule) const {
  EvaluatorWorkspace ws;
  return evaluate(schedule, ws);
}

Evaluation ScheduleEvaluator::evaluate(const Schedule& schedule, EvaluatorWorkspace& ws,
                                       EvalMath math) const {
  ensure(cells_.size() == 1, "evaluate() scores one cell; use expected_makespans for a family");
  validate_schedule(*graph_, schedule);
  std::vector<double> per_task;
  double expected = 0.0;
  run(schedule, ws, {&expected, 1}, &per_task, math);
  Evaluation result = summarize_evaluation(*graph_, schedule, expected);
  result.per_task_expected = std::move(per_task);
  return result;
}

double ScheduleEvaluator::expected_makespan(const Schedule& schedule, EvaluatorWorkspace& ws,
                                            bool validate, EvalMath math) const {
  ensure(cells_.size() == 1,
         "expected_makespan() scores one cell; use expected_makespans for a family");
  double expected = 0.0;
  expected_makespans(schedule, ws, {&expected, 1}, validate, math);
  return expected;
}

void ScheduleEvaluator::expected_makespans(const Schedule& schedule, EvaluatorWorkspace& ws,
                                           std::span<double> out, bool validate,
                                           EvalMath math) const {
  ensure(out.size() == cells_.size(), "one output slot per evaluator cell");
  if (validate) validate_schedule(*graph_, schedule);
  run(schedule, ws, out, nullptr, math);
}

Evaluation summarize_evaluation(const TaskGraph& graph, const Schedule& schedule,
                                double expected_makespan) {
  Evaluation result;
  result.expected_makespan = expected_makespan;
  result.total_weight = graph.total_weight();
  result.checkpoint_count = schedule.checkpoint_count();
  double fault_free = 0.0;
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    fault_free += graph.weight(v);
    if (schedule.is_checkpointed(v)) fault_free += graph.ckpt_cost(v);
  }
  result.fault_free_time = fault_free;
  result.ratio = result.total_weight > 0.0 ? result.expected_makespan / result.total_weight : 1.0;
  return result;
}

void ScheduleEvaluator::run(const Schedule& schedule, EvaluatorWorkspace& ws,
                            std::span<double> totals, std::vector<double>* per_task,
                            EvalMath math) const {
  // per_task is only requested by the one-cell evaluate().
  const std::size_t n = graph_->task_count();
  std::fill(totals.begin(), totals.end(), 0.0);
  if (per_task) per_task->assign(n, 0.0);
  if (n == 0) return;
  const Dag& dag = graph_->dag();
  ws.resize(n, dag.edge_count(), lanes_.size());

  // --- Reindex everything into position space. -------------------------
  for (std::size_t i = 0; i < n; ++i) ws.position[schedule.order[i]] = static_cast<std::uint32_t>(i);
  // Gather straight from the SoA task arrays into position space.
  const std::span<const double> weights = graph_->weights_view();
  const std::span<const double> ckpt_costs = graph_->ckpt_costs_view();
  const std::span<const double> recovery_costs = graph_->recovery_costs_view();
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    ws.work[i] = weights[v];
    ws.flag[i] = schedule.checkpointed[v];
    ws.ckpt[i] = ws.flag[i] ? ckpt_costs[v] : 0.0;
    ws.recovery[i] = recovery_costs[v];
  }
  // Predecessor CSR in position space.
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    ws.pred_offsets[i + 1] = static_cast<std::uint32_t>(dag.predecessors(v).size());
  }
  for (std::size_t i = 0; i < n; ++i) ws.pred_offsets[i + 1] += ws.pred_offsets[i];
  std::copy_n(ws.pred_offsets.begin(), n, ws.pred_fill.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    for (const VertexId p : dag.predecessors(v)) ws.pred_list[ws.pred_fill[i]++] = ws.position[p];
  }

  EvalMetrics& metrics = eval_metrics();
  metrics.runs.add(cells_.size());
  // No failures: the makespan is deterministic (and runs no kernel sweep).
  for (const std::uint32_t cell : failure_free_cells_) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = ws.work[i] + ws.ckpt[i];
      if (per_task) (*per_task)[i] = xi;
      total += xi;
    }
    totals[cell] = total;
  }
  if (lanes_.empty()) return;
  metrics.walks.add(1);

  // Lost work L^i_k for the current pass position k: DFS from i over lost,
  // non-checkpointed predecessors. `recovered_at[j] == k` marks tasks that
  // already entered some T|k_l with l <= i (their output is back in
  // memory), which both deduplicates the DFS and implements the exclusion
  // rule of Definition 1. The walk is the same for every cell.
  //
  // The stack is a plain array: a walk pushes its start plus each j < k at
  // most once (recovered_at marks it first), so n + 1 slots never
  // overflow, and the DFS loop makes no allocating call.
  std::int32_t* const recovered_at = ws.recovered_at.data();
  std::uint32_t* const stack = ws.dfs_stack.data();
  const std::uint32_t* const pred_offsets = ws.pred_offsets.data();
  const std::uint32_t* const pred_list = ws.pred_list.data();
  const std::uint8_t* const flag = ws.flag.data();
  const double* const recovery = ws.recovery.data();
  const double* const work = ws.work.data();
  const double* const ckpt = ws.ckpt.data();
  const auto lost_work = [&](std::size_t i, std::int32_t k) -> double {
    double lost = 0.0;
    std::size_t top = 0;
    stack[top++] = static_cast<std::uint32_t>(i);
    while (top != 0) {
      const std::uint32_t node = stack[--top];
      for (std::uint32_t e = pred_offsets[node]; e < pred_offsets[node + 1]; ++e) {
        const std::uint32_t j = pred_list[e];
        if (static_cast<std::int32_t>(j) >= k) continue;  // executed after the failure
        if (recovered_at[j] == k) continue;               // already recovered/re-executed
        recovered_at[j] = k;
        if (flag[j]) {
          lost += recovery[j];  // reload the checkpoint; stop the walk here
        } else {
          lost += work[j];  // re-execute; its own inputs are needed too
          stack[top++] = j;
        }
      }
    }
    return lost;
  };

  // --- Pass k = -1: no failure has happened yet. -----------------------
  // Zero-probability events are skipped everywhere below: their Eq.-(1)
  // term can overflow to +inf on failure-dominated segments and 0 * inf
  // would poison the sum with a NaN.
  //
  // expm1(lambda (w_i + delta_i c_i)) is memoized here because it is the
  // exact factor every later pass needs whenever L^i_k == 0 — with no
  // lost work, lambda * (0.0 + w_i + c_i) has the same bit pattern as
  // lambda * (w_i + c_i) and e^{-lambda * 0} == 1.0, so reusing the
  // memoized value is bit-identical while skipping both transcendentals
  // on the (dominant) zero-loss pairs of the O(n^2) loop below.
  //
  // Both factors are staged into the lane's buffers and run as one kernel
  // sweep each (math_kernels.hpp); the exact backend makes this
  // bit-identical to the historical element-wise loop.
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const double lambda = lanes_[l].lambda;
    EvaluatorWorkspace::LaneScratch& lane = ws.lanes[l];
    double elapsed = 0.0;  // sum of w_j + delta_j c_j, j < i
    for (std::size_t i = 0; i < n; ++i) {
      lane.expm1_wc[i] = lambda * (work[i] + ckpt[i]);
      lane.q[i] = elapsed;
      elapsed += work[i] + ckpt[i];
    }
    vexpm1(lane.expm1_wc.data(), lane.expm1_wc.data(), n, math);
    vexp_neg_mul(lambda, lane.q.data(), lane.q.data(), n, math);
    for (std::size_t i = 0; i < n; ++i) {
      const double p = lane.q[i];
      if (p > 0.0) {
        lane.accum[i] += p * lane.expm1_wc[i];
        lane.sum_prob[i] += p;
      }
    }
  }

  // --- Passes k = 0..n-1: last failure during X_k. ----------------------
  //
  // Each pass first walks, writing S^i_k and L^i_k of every record into
  // the shared span/lost arrays. Each live lane then runs one sweep,
  // q <- e^{-lambda S}, and scores the pass in one loop over i ascending.
  // L^i_k > 0 needs e^{-lambda L} and expm1(lambda (L + w_i + delta_i
  // c_i)). L^i_k never decreases in k and mostly stays put (on fig2, 96%
  // of such records have the L of the last pass that scored position i),
  // so the factors come from the lane's per-position memo and only a
  // changed L runs the kernels. Those are 1-element calls, and under
  // either backend a factor's bits do not depend on which pass or row
  // computed it. The expressions and their order are those of the
  // historical element-wise code: p * a * b == (p * a) * b, k-major, i
  // ascending.
  std::fill_n(recovered_at, n, -1);
  double* const span_row = ws.span.data();
  double* const lost_row = ws.lost.data();
  std::uint64_t lost_terms = 0;
  std::uint64_t lost_recomputed = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // P(Z^{k+1}_k) = 1 - sum over earlier failure positions (property B).
    // It is final before pass k starts, so a pass dead in every lane
    // (probability mass exhausted, or k == n-1 with no later tasks) skips
    // the walk entirely: only L^k_k is still needed, and the skipped DFS
    // epoch marks are never read again.
    bool live = false;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      EvaluatorWorkspace::LaneScratch& lane = ws.lanes[l];
      lane.base = k + 1 < n ? std::clamp(1.0 - lane.sum_prob[k + 1], 0.0, 1.0) : 0.0;
      live = live || lane.base != 0.0;
    }
    const auto pass = static_cast<std::int32_t>(k);
    ws.self_loss[k] = lost_work(k, pass);  // L^k_k
    if (!live) continue;

    double span = 0.0;  // S^i_k = sum_{k<j<i} (L^j_k + w_j + delta_j c_j)
    std::size_t r = 0;
    for (std::size_t i = k + 1; i < n; ++i, ++r) {
      const double lost = lost_work(i, pass);
      span_row[r] = span;
      lost_row[r] = lost;
      span += lost + work[i] + ckpt[i];
    }

    // Buffers are reached through raw pointers hoisted out of the loop,
    // which then makes no call but the (rare) kernel recompute.
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      EvaluatorWorkspace::LaneScratch& lane = ws.lanes[l];
      const double base = lane.base;
      if (base == 0.0) continue;
      const double lambda = lanes_[l].lambda;
      ++lane.staged_passes;
      double* const q = lane.q.data();
      vexp_neg_mul(lambda, span_row, q, r, math);
      double* const accum = lane.accum.data();
      double* const sum_prob = lane.sum_prob.data();
      const double* const expm1_wc = lane.expm1_wc.data();
      double* const memo_l = lane.memo_l.data();
      double* const memo_a = lane.memo_a.data();
      double* const memo_b = lane.memo_b.data();
      std::size_t row = 0;
      for (std::size_t i = k + 1; i < n; ++i, ++row) {
        const double p = q[row] * base;
        if (!(p > 0.0)) continue;
        const double lost = lost_row[row];
        if (lost == 0.0) {
          // lambda * (0.0 + w_i + c_i) has the bits of lambda * (w_i + c_i)
          // and e^{-lambda * 0} == 1.0, so the pass -1 factor is exact.
          accum[i] += p * expm1_wc[i];
        } else {
          ++lost_terms;
          if (lost != memo_l[i]) {
            ++lost_recomputed;
            const double arg = lambda * (lost + work[i] + ckpt[i]);
            vexp_neg_mul(lambda, &lost_row[row], &memo_a[i], 1, math);
            vexpm1(&arg, &memo_b[i], 1, math);
            memo_l[i] = lost;
            if (memo_a[i] == 0.0) [[unlikely]] {
              // e^{-lambda L} underflowed, so expm1 overflowed and 0 * inf
              // would be NaN. L^i_i >= L^i_k, so the combine's
              // e^{lambda L^i_i} overflows too: +inf is the double result.
              memo_a[i] = 1.0;
              memo_b[i] = std::numeric_limits<double>::infinity();
            }
          }
          accum[i] += p * memo_a[i] * memo_b[i];
        }
        sum_prob[i] += p;
      }
    }
  }

  // --- Combine: E[X_i] = e^{lambda L^i_i} (1/lambda + D) accum[i]. ------
  // The only per-cell work: each cell of a lane sums its own xi in i order.
  std::uint64_t sweeps = 0;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const double lambda = lanes_[l].lambda;
    const EvaluatorWorkspace::LaneScratch& lane = ws.lanes[l];
    sweeps += 2 + lane.staged_passes;  // pass -1 runs 2 sweeps, each staged pass 1
    for (std::size_t i = 0; i < n; ++i) {
      // accum[i] == 0 happens only when every reachable event has zero
      // cost (or its probability underflowed); guard against inf * 0. The
      // self_loss == 0 branch elides e^{lambda * 0} == 1.0 bit-identically.
      const double accum = lane.accum[i];
      if (accum == 0.0) continue;  // xi == 0 for every cell: totals unchanged
      const bool grows = ws.self_loss[i] != 0.0;
      // determinism-ok: serial O(n) combine tail, not a pass sweep (staging would cost more)
      const double growth = grows ? std::exp(lambda * ws.self_loss[i]) : 1.0;
      for (std::size_t c = 0; c < lanes_[l].cells.size(); ++c) {
        const double rate_factor = lanes_[l].rate_factors[c];
        const double xi = grows ? growth * rate_factor * accum : rate_factor * accum;
        if (per_task) (*per_task)[i] = xi;
        totals[lanes_[l].cells[c]] += xi;
      }
    }
  }
  metrics.sweeps.add(sweeps);
  metrics.lost_terms.add(lost_terms);
  metrics.lost_recomputed.add(lost_recomputed);
}

}  // namespace fpsched
