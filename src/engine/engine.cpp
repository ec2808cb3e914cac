#include "engine/engine.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>

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
// wall time of every scenario family across all workers — together with
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
                    "summed per-family wall nanoseconds across workers"),
        reg.counter("fpsched_instance_cache_hits_total",
                    "scenario lookups served by an already-materialized instance"),
        reg.histogram("fpsched_engine_run_seconds", "wall seconds per engine batch run",
                      obs::latency_buckets_seconds()),
        reg.histogram("fpsched_engine_scenario_seconds",
                      "wall seconds per scenario family (scenarios differing only in lambda/D)",
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
  // a pool; the non-budgeted single candidate with one).
  options.sweep.workspace = &workspace;
  return options;
}

namespace {

/// The policy-selection logic of a family (scenarios differing only in
/// their failure model; see family_key). `run_cells(heuristic)` runs one
/// heuristic on the family's evaluator and returns one result per cell;
/// `graph` is the family's instance (needed by simulated_best, which
/// replays each cell's winning schedule through the fault simulator on
/// `pool`). Every cell makes the same choices a one-scenario run would.
template <typename RunFn>
std::vector<ScenarioResult> execute_policy(std::span<const ScenarioSpec> family,
                                           const TaskGraph& graph, ThreadPool* pool,
                                           RunFn&& run_cells) {
  const ScenarioPolicy& policy = family.front().policy;
  std::vector<ScenarioResult> results(family.size());
  const auto take = [&](std::size_t cell, const HeuristicResult& run, LinearizeMethod lin) {
    results[cell].evaluation = run.evaluation;
    results[cell].linearization = lin;
    results[cell].best_budget = run.best_budget;
  };
  for (std::size_t cell = 0; cell < family.size(); ++cell) results[cell].spec = family[cell];

  if (policy.kind == ScenarioPolicy::Kind::fixed_heuristic) {
    const std::vector<HeuristicResult> runs = run_cells(policy.heuristic);
    for (std::size_t cell = 0; cell < family.size(); ++cell) {
      take(cell, runs[cell], policy.heuristic.linearization);
    }
    return results;
  }

  if (policy.kind == ScenarioPolicy::Kind::simulated_best) {
    // Robustness study: pick the schedule that wins across ALL heuristics
    // under the analytic (exponential) model, then re-score it under the
    // policy's failure law. The analytic row keeps the evaluator's
    // expectation; the simulated rows replace expected_makespan (and the
    // ratio derived from it) with the Monte-Carlo mean.
    std::vector<std::vector<HeuristicResult>> by_cell(family.size());
    for (const HeuristicSpec& heuristic : all_heuristics()) {
      std::vector<HeuristicResult> runs = run_cells(heuristic);
      for (std::size_t cell = 0; cell < family.size(); ++cell) {
        by_cell[cell].push_back(std::move(runs[cell]));
      }
    }
    for (std::size_t cell = 0; cell < family.size(); ++cell) {
      const ScenarioSpec& spec = family[cell];
      const HeuristicResult& best = by_cell[cell][best_result_index(by_cell[cell])];
      take(cell, best, best.spec.linearization);
      if (policy.sim_distribution == ScenarioPolicy::SimDistribution::analytic) continue;

      const double lambda = spec.model.lambda();
      ensure(lambda > 0.0, "a simulated policy needs lambda > 0 (" + spec.label() + ")");
      ensure(policy.sim_trials >= 1,
             "a simulated policy needs sim_trials >= 1 (" + spec.label() + ")");
      const FaultDistribution faults =
          policy.sim_distribution == ScenarioPolicy::SimDistribution::exponential
              ? FaultDistribution::exponential(lambda)
              : FaultDistribution::weibull_from_mtbf(policy.sim_shape, 1.0 / lambda);
      const FaultSimulator simulator(graph, spec.model, best.schedule);
      const TrialOptions trials{.trials = policy.sim_trials, .seed = policy.sim_seed, .pool = pool};
      const MonteCarloSummary summary = run_trials_with_distribution(simulator, faults, trials);
      Evaluation& evaluation = results[cell].evaluation;
      evaluation.expected_makespan = summary.mean_makespan();
      evaluation.ratio = evaluation.total_weight > 0.0
                             ? summary.mean_makespan() / evaluation.total_weight
                             : 1.0;
    }
    return results;
  }

  // best_linearization: the selection rule of Figures 3 and 5-7 — keep the
  // linearization with the smallest ratio. CkptNvr / CkptAlws are defined
  // with the DF linearization only (Section 5).
  if (!is_budgeted(policy.strategy)) {
    const std::vector<HeuristicResult> runs =
        run_cells({LinearizeMethod::depth_first, policy.strategy});
    for (std::size_t cell = 0; cell < family.size(); ++cell) {
      take(cell, runs[cell], LinearizeMethod::depth_first);
    }
    return results;
  }
  std::vector<double> best(family.size(), std::numeric_limits<double>::infinity());
  for (const LinearizeMethod lin : all_linearize_methods()) {
    const std::vector<HeuristicResult> runs = run_cells({lin, policy.strategy});
    for (std::size_t cell = 0; cell < family.size(); ++cell) {
      if (runs[cell].evaluation.ratio < best[cell]) {
        best[cell] = runs[cell].evaluation.ratio;
        take(cell, runs[cell], lin);
      }
    }
  }
  return results;
}

/// Everything of a spec but its failure model and grid position: specs
/// with equal keys form one family and share every evaluator walk.
std::string family_key(const ScenarioSpec& spec) {
  ScenarioSpec key = spec;
  key.model = FailureModel(0.0);
  key.scenario_index = 0;
  return canonical_spec_string(key);
}

}  // namespace

std::vector<ScenarioResult> ExperimentEngine::run_family(std::span<const ScenarioSpec> family,
                                                         InstanceCache& cache) const {
  ensure(!family.empty(), "a scenario family needs at least one scenario");
  const ScenarioSpec& spec = family.front();
  ensure(cache.key() == InstanceKey::of(spec),
         "instance cache does not match the scenario (" + spec.label() + ")");
  ensure(spec.stride >= 1, "scenario stride must be >= 1 (" + spec.label() + ")");
  std::vector<FailureModel> cells{spec.model};
  if (family.size() > 1) {
    const std::string key = family_key(spec);
    for (const ScenarioSpec& member : family.subspan(1)) {
      ensure(family_key(member) == key,
             "scenarios of a family may differ only in their failure model (" + member.label() +
                 ")");
      cells.push_back(member.model);
    }
  }
  EngineMetrics& metrics = engine_metrics();
  const obs::ScopedTimer timer(&metrics.scenario_seconds, &metrics.busy_ns);
  const obs::TraceSpan span([&] {
    return "family " + spec.label() + " x" + std::to_string(family.size());
  });
  metrics.scenarios.add(family.size());
  const TaskGraph& graph = cache.graph_for(spec.cost_model);
  const ScheduleEvaluator evaluator(graph, std::move(cells));
  HeuristicOptions options = worker_options(cache.workspace());
  options.linearize = spec.linearize;
  options.sweep.stride = spec.stride;
  return execute_policy(family, graph, pool_.get(), [&](const HeuristicSpec& heuristic) {
    return run_heuristic_cells(evaluator, heuristic, cache.order(heuristic.linearization),
                               options);
  });
}

ScenarioResult ExperimentEngine::run_scenario(const ScenarioSpec& spec,
                                              InstanceCache& cache) const {
  return std::move(run_family({&spec, 1}, cache).front());
}

namespace {

/// Per-slot memo of materialized instances. Tasks stay at family
/// granularity (grouping work units by instance would cap parallelism at
/// the number of distinct instances — a lambda/downtime sweep has one per
/// panel); instead every pool slot lazily materializes each InstanceKey it
/// encounters once and replays it for all of its families with that key.
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

  // One task per family: the specs that differ only in their failure
  // model, in first-appearance order, share every evaluator walk. A slot
  // runs one family at a time, so its instance memo has a single user;
  // every result is a pure function of its spec (the cached state is a
  // pure function of the key, and a family cell computes exactly what a
  // one-scenario run would), so the output — written to input-order slots
  // — is identical for any width, grouping or work distribution.
  std::vector<std::vector<std::size_t>> families;
  {
    std::map<std::string, std::size_t> family_of;
    for (std::size_t index = 0; index < specs.size(); ++index) {
      const auto [it, inserted] = family_of.emplace(family_key(specs[index]), families.size());
      if (inserted) families.emplace_back();
      families[it->second].push_back(index);
    }
  }
  std::vector<WorkerInstanceCaches> caches(slot_count());
  run_tasks(families.size(), [&](std::size_t family, std::size_t slot) {
    const std::vector<std::size_t>& members = families[family];
    std::vector<ScenarioSpec> family_specs;
    family_specs.reserve(members.size());
    for (const std::size_t index : members) family_specs.push_back(specs[index]);
    std::vector<ScenarioResult> family_results =
        run_family(family_specs, caches[slot].for_spec(family_specs.front()));
    for (std::size_t cell = 0; cell < members.size(); ++cell) {
      results[members[cell]] = std::move(family_results[cell]);
    }
    for (const std::size_t index : members) emitter.complete(index);
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
