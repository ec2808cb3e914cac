// ExperimentEngine: sharded parallel execution of scenario lists.
//
// The bench binaries used to run their figure grids as serial loops, with
// parallelism confined to the innermost checkpoint-budget sweep. The
// engine inverts that: the *flattened scenario list* is sharded across
// workers via parallel_for_workers, each worker keeps a private memo of
// materialized instances (graph, linearizations and evaluator workspace,
// see instance_cache.hpp), and the inner sweep runs serially inside its
// scenario. Every scenario's result depends only on its ScenarioSpec
// (instance seeds and RNG streams are part of the spec), so results are
// bit-for-bit identical regardless of the thread count.
//
// Nested scheduling: scenario-granularity sharding alone caps the speedup
// at the number of scenarios, so whenever the slice has fewer scenarios
// than workers, run() switches to one shared ThreadPool for the whole
// run and hands every scenario worker a PoolToken. The worker's inner
// budget sweep then submits each candidate as a task on the same pool
// (and, with eval_threads > 1, each evaluation additionally splits its
// Theorem-3 k-blocks onto it), so idle scenario workers steal work from
// in-flight scenarios instead of parking. When scenarios >= workers the
// engine keeps today's scenario-parallel path. Both paths — and every
// thread-count / eval-thread combination — produce bit-identical results:
// every task writes only slot-owned state and the k-block evaluator
// recombines in serial pass order.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/instance_cache.hpp"
#include "engine/scenario.hpp"
#include "heuristics/heuristic.hpp"

namespace fpsched::engine {

struct EngineOptions {
  /// Worker threads for scenario sharding. 0 = default_thread_count()
  /// (honors FPSCHED_THREADS); 1 = serial. Clamped to a hard ceiling of
  /// 256 real OS threads — thread counts arrive from CLI flags and HTTP
  /// query parameters, and an absurd request must degrade to "as wide as
  /// is useful", not exhaust the host's thread limit.
  std::size_t threads = 0;
  /// Intra-evaluation k-block workers for the Theorem-3 evaluator (CLI:
  /// --eval-threads). 1 (default) keeps every evaluation serial; 0 = all
  /// cores. Takes effect in nested mode (scenarios < workers) and with a
  /// serial engine (threads == 1), where scenario sharding alone cannot
  /// fill the machine; the scenario-saturated path ignores it. Results
  /// are bit-identical for every value.
  std::size_t eval_threads = 1;
  /// Transcendental backend for every Theorem-3 evaluation this engine
  /// runs (CLI: --eval-math; HTTP: eval_math). `exact` reproduces the
  /// historical libm output bit for bit; `fast` opts into the batched
  /// polynomial kernels (<= 4 ulp per call, see math_kernels.hpp), still
  /// deterministic across all thread counts.
  EvalMath eval_math = EvalMath::exact;
};

/// Shared-pool token handed to workers in nested mode: the inner budget
/// sweep submits its candidates to `pool`, and each candidate evaluation
/// splits into `eval_threads` k-blocks on the same pool.
struct PoolToken {
  ThreadPool* pool = nullptr;
  std::size_t eval_threads = 1;
};

/// Outcome of one scenario.
struct ScenarioResult {
  ScenarioSpec spec;
  Evaluation evaluation;
  /// The linearization that produced `evaluation` (for best_linearization
  /// policies, the winner; fixed policies echo the spec).
  LinearizeMethod linearization = LinearizeMethod::depth_first;
  std::size_t best_budget = 0;

  double ratio() const { return evaluation.ratio; }
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions options = {});

  /// Effective worker count (>= 1).
  std::size_t thread_count() const { return threads_; }

  /// Thread count nested algorithms (sweeps, exact solvers, greedy
  /// scans, Monte-Carlo trials) should use inside one of this engine's
  /// workers: 1 when the engine shards in parallel (a nested pool would
  /// oversubscribe), 0 (= all cores) when the engine itself is serial.
  std::size_t inner_threads() const { return threads_ > 1 ? 1 : 0; }

  /// Heuristic options for code running inside one of this engine's
  /// workers: inner sweep threads from inner_threads(), reusing the
  /// worker's workspace when serial. Callers layer their stride /
  /// linearization on top. With an active `token` (nested mode) the sweep
  /// gets the shared pool and eval-thread width instead.
  HeuristicOptions worker_options(EvaluatorWorkspace& workspace,
                                  const PoolToken& token = {}) const;

  /// Streaming hook for run(): called once per scenario with its input
  /// index and result. Deliveries are serialized and strictly ordered —
  /// index i fires only after every j < i has fired — so a consumer can
  /// stream records live, in flattened order, while later scenarios are
  /// still computing on other workers.
  using ResultCallback = std::function<void(std::size_t, const ScenarioResult&)>;

  /// Runs every scenario; results come back in input order and are
  /// independent of the thread count. A non-null `on_result` receives
  /// each result in input order as soon as its ordered prefix completes.
  std::vector<ScenarioResult> run(std::span<const ScenarioSpec> specs,
                                  const ResultCallback& on_result = {}) const;

  /// Enumerates and runs a grid.
  std::vector<ScenarioResult> run(const ScenarioGrid& grid) const;

  /// Sharded execution of `count` custom work items: body(index,
  /// workspace) runs once per index on some worker, with a per-worker
  /// scratch workspace. The body must write only index-owned state.
  /// Building block for the study benches whose scenarios are not plain
  /// kind x size grids (theory instances, ablations, exact solvers).
  void for_each(std::size_t count,
                const std::function<void(std::size_t, EvaluatorWorkspace&)>& body) const;

  /// Parallel drop-in for fpsched::run_heuristics: shards the heuristic
  /// list across workers (serializing each inner sweep) and returns the
  /// numerically identical results in the same order. When the engine
  /// shards (thread_count() > 1), `options.sweep`'s threads/workspace
  /// fields are overridden; a serial engine forwards them untouched so
  /// the inner sweep keeps the caller's own parallelism settings.
  std::vector<HeuristicResult> run_heuristics(const ScheduleEvaluator& evaluator,
                                              const std::vector<HeuristicSpec>& specs,
                                              HeuristicOptions options = {}) const;

  /// Runs one scenario against a materialized instance. `cache.key()` must
  /// equal InstanceKey::of(spec); the graph/linearizations are replayed
  /// from the cache, bit-identical to generating them from scratch.
  ScenarioResult run_scenario(const ScenarioSpec& spec, InstanceCache& cache,
                              const PoolToken& token = {}) const;

  /// Resolved EngineOptions::eval_threads (>= 1).
  std::size_t eval_threads() const { return eval_threads_; }

  /// The math backend every evaluation of this engine uses.
  EvalMath eval_math() const { return eval_math_; }

 private:
  std::size_t threads_;
  std::size_t eval_threads_;
  EvalMath eval_math_;
};

}  // namespace fpsched::engine
