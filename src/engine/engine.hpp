// ExperimentEngine: parallel execution of scenario lists on one pool.
//
// An engine of width `threads` owns one ThreadPool of threads - 1 workers
// (none at width 1); the thread that calls run() is the remaining core.
// run() groups the flattened list into families — scenarios that differ
// only in their failure model (lambda, D), in first-appearance order — and
// submits every family as a task of one TaskGroup. A family's budget sweep
// builds each candidate once, walks it once and scores it for every cell
// (see ScheduleEvaluator), submitting its candidates as tasks of a nested
// TaskGroup on the same pool, so a worker that runs out of families steals
// candidates from in-flight sweeps instead of parking.
// Each pool slot keeps a private memo of materialized instances (graph,
// linearizations and evaluator workspace, see instance_cache.hpp), so
// scenarios sharing an InstanceKey reuse one materialization per slot.
// Every scenario's result depends only on its ScenarioSpec (instance
// seeds and RNG streams are part of the spec) and every task writes only
// slot-owned state, so results are bit-for-bit identical for any width.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/instance_cache.hpp"
#include "engine/scenario.hpp"
#include "heuristics/heuristic.hpp"

namespace fpsched::engine {

struct EngineOptions {
  /// Cores the engine computes on: the calling thread plus threads - 1
  /// pool workers. 0 = default_thread_count() (honors FPSCHED_THREADS);
  /// 1 = serial, with no pool and no spawned thread. Clamped to a hard
  /// ceiling of 256 real OS threads — thread counts arrive from CLI flags
  /// and HTTP query parameters, and an absurd request must degrade to "as
  /// wide as is useful", not exhaust the host's thread limit.
  std::size_t threads = 0;
  /// Transcendental backend for every Theorem-3 evaluation this engine
  /// runs (CLI: --eval-math; HTTP: eval_math). `exact` reproduces the
  /// historical libm output bit for bit; `fast` opts into the batched
  /// polynomial kernels (<= 4 ulp per call, see math_kernels.hpp), still
  /// deterministic across all thread counts.
  EvalMath eval_math = EvalMath::exact;
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
  /// Joins the pool's workers.
  ~ExperimentEngine();

  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// Effective width in cores (>= 1).
  std::size_t thread_count() const { return threads_; }

  /// The engine's pool (thread_count() - 1 workers), or null for a serial
  /// engine. Nested algorithms (greedy scans, exact solvers) take it as
  /// their `pool` option to fan out on the same cores.
  ThreadPool* pool() const { return pool_.get(); }

  /// Heuristic options for code running inside one of this engine's
  /// tasks: the sweep scores its budgets on the engine's pool, reuses
  /// `workspace` for its serial bits and uses the engine's math backend.
  /// Callers layer their stride / linearization on top.
  HeuristicOptions worker_options(EvaluatorWorkspace& workspace) const;

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

  /// Parallel execution of `count` custom work items: body(index,
  /// workspace) runs once per index as a task on the engine's pool, with
  /// a per-slot scratch workspace. The body must write only index-owned
  /// state.
  /// Building block for the study benches whose scenarios are not plain
  /// kind x size grids (theory instances, exact solvers).
  void for_each(std::size_t count,
                const std::function<void(std::size_t, EvaluatorWorkspace&)>& body) const;

  /// Parallel drop-in for fpsched::run_heuristics: runs each heuristic as
  /// a task on the engine's pool and returns the numerically identical
  /// results in the same order. `options.sweep`'s pool and workspace are
  /// overridden with the engine's pool and the task's slot workspace.
  std::vector<HeuristicResult> run_heuristics(const ScheduleEvaluator& evaluator,
                                              const std::vector<HeuristicSpec>& specs,
                                              HeuristicOptions options = {}) const;

  /// Runs one scenario against a materialized instance. `cache.key()` must
  /// equal InstanceKey::of(spec); the graph/linearizations are replayed
  /// from the cache, bit-identical to generating them from scratch.
  ScenarioResult run_scenario(const ScenarioSpec& spec, InstanceCache& cache) const;

  /// Runs a family — scenarios equal in every field but their failure
  /// model and grid position — as one evaluator family: each candidate
  /// schedule is built and walked once and scored for every cell. result[c]
  /// is bit-identical to run_scenario(family[c], cache). Throws
  /// InvalidArgument when the specs are not one family.
  std::vector<ScenarioResult> run_family(std::span<const ScenarioSpec> family,
                                         InstanceCache& cache) const;

  /// The math backend every evaluation of this engine uses.
  EvalMath eval_math() const { return eval_math_; }

 private:
  /// Per-thread state entries a run_tasks body may index: one per pool
  /// slot, or 1 without a pool.
  std::size_t slot_count() const;

  /// The one fork/join of the engine: body(index, slot) for every index
  /// in [0, count), as tasks of one TaskGroup on the pool (serially on
  /// the calling thread without one), each task a run of consecutive
  /// indices. `slot` < slot_count() identifies the executing thread; a
  /// slot runs one body at a time.
  void run_tasks(std::size_t count,
                 const std::function<void(std::size_t, std::size_t)>& body) const;

  std::size_t threads_;
  EvalMath eval_math_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fpsched::engine
