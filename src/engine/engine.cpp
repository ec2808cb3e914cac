#include "engine/engine.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_distribution.hpp"
#include "sim/simulator.hpp"
#include "sim/trial_runner.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"
#include "support/threading.hpp"

namespace fpsched::engine {

namespace {

/// Thread counts come straight from CLI flags and HTTP query parameters;
/// clamp them to the kMaxPoolThreads ceiling.
std::size_t resolve_workers(std::size_t requested) {
  const std::size_t resolved = requested == 0 ? default_thread_count() : requested;
  return std::clamp<std::size_t>(resolved, 1, kMaxPoolThreads);
}

// Telemetry only (see obs/metrics.hpp for the contract). busy_ns sums the
// wall time of every scenario across all workers — together with
// run_seconds it yields worker utilization (busy / (wall * threads)).
struct EngineMetrics {
  obs::Counter& runs;
  obs::Counter& scenarios;
  obs::Counter& busy_ns;
  obs::Counter& cache_hits;
  obs::Histogram& run_seconds;
  obs::Histogram& scenario_seconds;
  obs::Gauge& emitter_buffered;
  obs::Gauge& emitter_buffered_peak;
};

EngineMetrics& engine_metrics() {
  static EngineMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new EngineMetrics{
        reg.counter("fpsched_engine_runs_total", "engine batch runs"),
        reg.counter("fpsched_engine_scenarios_total", "scenarios executed"),
        reg.counter("fpsched_engine_busy_ns_total",
                    "summed per-scenario wall nanoseconds across workers"),
        reg.counter("fpsched_instance_cache_hits_total",
                    "scenario lookups served by an already-materialized instance"),
        reg.histogram("fpsched_engine_run_seconds", "wall seconds per engine batch run",
                      obs::latency_buckets_seconds()),
        reg.histogram("fpsched_engine_scenario_seconds", "wall seconds per scenario",
                      obs::latency_buckets_seconds()),
        reg.gauge("fpsched_engine_emitter_buffered",
                  "results completed out of order, held for in-order emission"),
        reg.gauge("fpsched_engine_emitter_buffered_peak",
                  "high-water mark of out-of-order results held by the emitter")};
  }();
  return *metrics;
}

}  // namespace

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : threads_(resolve_workers(options.threads)),
      eval_math_(options.eval_math),
      pool_(threads_ > 1 ? std::make_unique<ThreadPool>(threads_ - 1) : nullptr) {}

ExperimentEngine::~ExperimentEngine() = default;

HeuristicOptions ExperimentEngine::worker_options(EvaluatorWorkspace& workspace) const {
  HeuristicOptions options;
  options.sweep.pool = pool_.get();
  options.sweep.math = eval_math_;
  // The workspace serves the sweep's serial bits (every candidate without
  // a pool; the non-budgeted single candidate and the winner's
  // re-evaluation with one).
  options.sweep.workspace = &workspace;
  return options;
}

namespace {

/// The scenario's policy-selection logic. `run_one(heuristic)` runs one
/// heuristic on the scenario's evaluator; `graph` is the scenario's
/// instance (needed by simulated_best, which replays the winning schedule
/// through the fault simulator on `pool`).
template <typename RunFn>
ScenarioResult execute_policy(const ScenarioSpec& spec, const TaskGraph& graph, ThreadPool* pool,
                              RunFn&& run_one) {
  ScenarioResult result;
  result.spec = spec;
  if (spec.policy.kind == ScenarioPolicy::Kind::fixed_heuristic) {
    HeuristicResult run = run_one(spec.policy.heuristic);
    result.evaluation = run.evaluation;
    result.linearization = spec.policy.heuristic.linearization;
    result.best_budget = run.best_budget;
    return result;
  }

  if (spec.policy.kind == ScenarioPolicy::Kind::simulated_best) {
    // Robustness study: pick the schedule that wins across ALL heuristics
    // under the analytic (exponential) model, then re-score it under the
    // policy's failure law. The analytic row keeps the evaluator's
    // expectation; the simulated rows replace expected_makespan (and the
    // ratio derived from it) with the Monte-Carlo mean.
    const std::vector<HeuristicSpec>& heuristics = all_heuristics();
    std::vector<HeuristicResult> runs;
    runs.reserve(heuristics.size());
    for (const HeuristicSpec& heuristic : heuristics) runs.push_back(run_one(heuristic));
    const HeuristicResult& best = runs[best_result_index(runs)];
    result.evaluation = best.evaluation;
    result.linearization = best.spec.linearization;
    result.best_budget = best.best_budget;
    if (spec.policy.sim_distribution == ScenarioPolicy::SimDistribution::analytic) return result;

    const double lambda = spec.model.lambda();
    ensure(lambda > 0.0, "a simulated policy needs lambda > 0 (" + spec.label() + ")");
    ensure(spec.policy.sim_trials >= 1,
           "a simulated policy needs sim_trials >= 1 (" + spec.label() + ")");
    const FaultDistribution faults =
        spec.policy.sim_distribution == ScenarioPolicy::SimDistribution::exponential
            ? FaultDistribution::exponential(lambda)
            : FaultDistribution::weibull_from_mtbf(spec.policy.sim_shape, 1.0 / lambda);
    const FaultSimulator simulator(graph, spec.model, best.schedule);
    const TrialOptions trials{
        .trials = spec.policy.sim_trials, .seed = spec.policy.sim_seed, .pool = pool};
    const MonteCarloSummary summary = run_trials_with_distribution(simulator, faults, trials);
    result.evaluation.expected_makespan = summary.mean_makespan();
    result.evaluation.ratio = result.evaluation.total_weight > 0.0
                                  ? summary.mean_makespan() / result.evaluation.total_weight
                                  : 1.0;
    return result;
  }

  // best_linearization: the selection rule of Figures 3 and 5-7 — keep the
  // linearization with the smallest ratio. CkptNvr / CkptAlws are defined
  // with the DF linearization only (Section 5).
  if (!is_budgeted(spec.policy.strategy)) {
    HeuristicResult run = run_one({LinearizeMethod::depth_first, spec.policy.strategy});
    result.evaluation = run.evaluation;
    result.linearization = LinearizeMethod::depth_first;
    result.best_budget = run.best_budget;
    return result;
  }
  double best = std::numeric_limits<double>::infinity();
  for (const LinearizeMethod lin : all_linearize_methods()) {
    HeuristicResult run = run_one({lin, spec.policy.strategy});
    if (run.evaluation.ratio < best) {
      best = run.evaluation.ratio;
      result.evaluation = run.evaluation;
      result.linearization = lin;
      result.best_budget = run.best_budget;
    }
  }
  return result;
}

}  // namespace

ScenarioResult ExperimentEngine::run_scenario(const ScenarioSpec& spec,
                                              InstanceCache& cache) const {
  ensure(cache.key() == InstanceKey::of(spec),
         "instance cache does not match the scenario (" + spec.label() + ")");
  ensure(spec.stride >= 1, "scenario stride must be >= 1 (" + spec.label() + ")");
  EngineMetrics& metrics = engine_metrics();
  const obs::ScopedTimer timer(&metrics.scenario_seconds, &metrics.busy_ns);
  const obs::TraceSpan span([&] { return "scenario " + spec.label(); });
  metrics.scenarios.add(1);
  const TaskGraph& graph = cache.graph_for(spec.cost_model);
  const ScheduleEvaluator evaluator(graph, spec.model);
  HeuristicOptions options = worker_options(cache.workspace());
  options.linearize = spec.linearize;
  options.sweep.stride = spec.stride;
  return execute_policy(spec, graph, pool_.get(), [&](const HeuristicSpec& heuristic) {
    return run_heuristic(evaluator, heuristic, cache.order(heuristic.linearization), options);
  });
}

namespace {

/// Per-slot memo of materialized instances. Tasks stay at scenario
/// granularity (grouping work units by instance would cap parallelism at
/// the number of distinct instances — a lambda/downtime sweep has one per
/// panel); instead every pool slot lazily materializes each InstanceKey it
/// encounters once and replays it for all of its scenarios with that key.
/// Grids emit an instance's cells consecutively, so the last-used cache
/// almost always hits.
class WorkerInstanceCaches {
 public:
  InstanceCache& for_spec(const ScenarioSpec& spec) {
    const InstanceKey key = InstanceKey::of(spec);
    if (!caches_.empty() && caches_.back()->key() == key) {
      engine_metrics().cache_hits.add(1);
      return *caches_.back();
    }
    for (const auto& cache : caches_) {
      if (cache->key() == key) {
        engine_metrics().cache_hits.add(1);
        return *cache;
      }
    }
    caches_.push_back(std::make_unique<InstanceCache>(spec));
    return *caches_.back();
  }

 private:
  std::vector<std::unique_ptr<InstanceCache>> caches_;
};

/// Turns out-of-order scenario completions into the in-order
/// ResultCallback contract: a worker marks its slot done, and whoever
/// extends the completed prefix delivers the pending callbacks under one
/// mutex (which also serializes the callback itself — consumers need no
/// locking of their own).
class OrderedEmitter {
 public:
  OrderedEmitter(const ExperimentEngine::ResultCallback& on_result,
                 const std::vector<ScenarioResult>& results)
      : on_result_(on_result), results_(results), done_(results.size(), false) {}

  void complete(std::size_t index) EXCLUDES(mutex_) {
    if (!on_result_) return;
    const LockGuard lock(mutex_);
    done_[index] = true;
    ++done_count_;
    while (next_ < done_.size() && done_[next_]) {
      on_result_(next_, results_[next_]);
      ++next_;
    }
    // Completed-but-not-yet-emitted results = head-of-line blocking depth.
    const auto buffered = static_cast<std::int64_t>(done_count_ - next_);
    engine_metrics().emitter_buffered.set(buffered);
    engine_metrics().emitter_buffered_peak.set_max(buffered);
  }

 private:
  const ExperimentEngine::ResultCallback& on_result_;
  const std::vector<ScenarioResult>& results_;
  Mutex mutex_;
  std::vector<char> done_ GUARDED_BY(mutex_);
  std::size_t done_count_ GUARDED_BY(mutex_) = 0;
  std::size_t next_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

std::size_t ExperimentEngine::slot_count() const {
  return pool_ != nullptr ? pool_->size() + 1 : 1;
}

void ExperimentEngine::run_tasks(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) const {
  if (pool_ == nullptr) {
    for (std::size_t index = 0; index < count; ++index) body(index, 0);
    return;
  }
  // Consecutive indices share a task (about 8 tasks per slot), so a slot
  // runs stretches of neighbouring scenarios: grids emit an instance's
  // cells consecutively, which keeps the per-slot instance memo hitting.
  const std::size_t chunk = std::max<std::size_t>(1, count / (slot_count() * 8));
  TaskGroup group(*pool_);
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    group.run([this, &body, begin, end] {
      const std::size_t slot = pool_->slot();
      for (std::size_t index = begin; index < end; ++index) body(index, slot);
    });
  }
  group.wait();
}

std::vector<ScenarioResult> ExperimentEngine::run(std::span<const ScenarioSpec> specs,
                                                  const ResultCallback& on_result) const {
  EngineMetrics& metrics = engine_metrics();
  metrics.runs.add(1);
  const obs::ScopedTimer run_timer(metrics.run_seconds);
  const obs::TraceSpan run_span([&] {
    return "engine.run " + std::to_string(specs.size()) + " scenarios";
  });
  std::vector<ScenarioResult> results(specs.size());
  OrderedEmitter emitter(on_result, results);

  // One task per scenario. A slot runs one scenario at a time, so its
  // instance memo has a single user; every result is a pure function of
  // its spec (the cached state is a pure function of the key), so the
  // output — written to input-order slots — is identical for any width or
  // work distribution.
  std::vector<WorkerInstanceCaches> caches(slot_count());
  run_tasks(specs.size(), [&](std::size_t index, std::size_t slot) {
    results[index] = run_scenario(specs[index], caches[slot].for_spec(specs[index]));
    emitter.complete(index);
  });
  return results;
}

std::vector<ScenarioResult> ExperimentEngine::run(const ScenarioGrid& grid) const {
  const std::vector<ScenarioSpec> specs = grid.enumerate();
  return run(specs);
}

void ExperimentEngine::for_each(
    std::size_t count, const std::function<void(std::size_t, EvaluatorWorkspace&)>& body) const {
  std::vector<EvaluatorWorkspace> workspaces(slot_count());
  run_tasks(count, [&](std::size_t index, std::size_t slot) { body(index, workspaces[slot]); });
}

std::vector<HeuristicResult> ExperimentEngine::run_heuristics(
    const ScheduleEvaluator& evaluator, const std::vector<HeuristicSpec>& specs,
    HeuristicOptions options) const {
  std::vector<HeuristicResult> results(specs.size());
  options.sweep.pool = pool_.get();
  for_each(specs.size(), [&](std::size_t index, EvaluatorWorkspace& workspace) {
    HeuristicOptions local = options;
    local.sweep.workspace = &workspace;
    results[index] = run_heuristic(evaluator, specs[index], local);
  });
  return results;
}

}  // namespace fpsched::engine
