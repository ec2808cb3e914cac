// Traced runs: each workload replayed serially through the layer APIs
// with benchmark-side spans around every call into a layer, plus the
// untraced legs the per-layer counters and ratios need.
//
// Batch span tree (one "engine.scenario" per flatten-plan position):
//   replay
//     engine.scenario
//       workflows.generate   InstanceCache construction / graph_for
//       dag.linearize        InstanceCache::order
//       core.validate        validate_schedule of the linearization
//       heuristics.place     place_checkpoints, once per budget
//       core.eval            ScheduleEvaluator::expected_makespan / evaluate
//       engine.serialize     record_body_json
// serve-mixed adds, per request: service.http_post, service.http_stream
// (whose self time holds the server-side job), service.cache_lookup and
// service.cache_insert around a mirror ResultCache.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <unistd.h>

#include "bench_stats.hpp"
#include "dag/linearize.hpp"
#include "engine/instance_cache.hpp"
#include "engine/result_sink.hpp"
#include "heuristics/checkpoint_strategy.hpp"
#include "heuristics/heuristic.hpp"
#include "http_client.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/result_cache.hpp"
#include "tracer.hpp"
#include "workflows/generator.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {

using fpsched::engine::FigureOptions;
using fpsched::engine::InstanceCache;
using fpsched::engine::InstanceKey;
using fpsched::engine::ScenarioPolicy;
using fpsched::engine::ScenarioResult;
using fpsched::engine::ScenarioSpec;
using Scope = Tracer::Scope;

// --- Counters --------------------------------------------------------------

/// Counter values by "name{labels}".
using Counters = std::map<std::string, double>;

Counters counters() {
  Counters out;
  for (const auto& [name, value] : fpsched::obs::MetricsRegistry::global().counter_values()) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

/// Adds after - before of every counter to `total` (counters registered
/// between the snapshots count from zero).
void accumulate(Counters& total, const Counters& before, const Counters& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    total[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

double get(const Counters& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

std::string base(double numerator, double denominator) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%.6g / %.6g", numerator, denominator);
  return buffer;
}

/// The engine-side counters every workload that runs the engine reports:
/// evaluator runs and kernel sweeps, busy time, instance-cache hits.
void set_engine_counters(Report& report, const Counters& delta, double wall_s,
                         std::size_t threads) {
  const double evals = get(delta, "fpsched_eval_runs_total");
  const double sweeps = get(delta, "fpsched_eval_kernel_sweeps_total");
  const double busy_s = get(delta, "fpsched_engine_busy_ns_total") * 1e-9;
  const double hits = get(delta, "fpsched_instance_cache_hits_total");
  const double misses = get(delta, "fpsched_instance_cache_misses_total");
  report.set("core.evals", evals, "count");
  report.set("core.kernel_sweeps", sweeps, "count");
  report.set("core.sweeps_per_eval", ratio(sweeps, evals), "ratio", 1, base(sweeps, evals));
  report.set("engine.busy_s", busy_s, "s");
  const double capacity = wall_s * static_cast<double>(threads);
  report.set("engine.core_busy_ratio", ratio(busy_s, capacity), "ratio", 1,
             base(busy_s, capacity) + " (busy s / wall s x threads)");
  report.set("engine.instance_cache_hit_ratio", ratio(hits, hits + misses), "ratio", 1,
             base(hits, hits + misses));
}

// --- Scenario replay -------------------------------------------------------

/// Materialized instances of a replay, one per InstanceKey (the engine's
/// per-worker memo, for a single worker).
class InstanceMemo {
 public:
  InstanceCache& for_spec(const ScenarioSpec& spec, Tracer& tracer, std::uint64_t id) {
    const InstanceKey key = InstanceKey::of(spec);
    for (const auto& cache : caches_) {
      if (cache->key() == key) return *cache;
    }
    const Scope span(tracer, "workflows.generate", id);
    caches_.push_back(std::make_unique<InstanceCache>(spec));
    return *caches_.back();
  }

 private:
  std::vector<std::unique_ptr<InstanceCache>> caches_;
};

struct HeuristicRun {
  fpsched::Evaluation evaluation;
  std::size_t best_budget = 0;
};

/// One scenario through the layer APIs, in the engine's order: the
/// policy's linearizations, a budget sweep per linearization
/// (place_checkpoints + expected_makespan per budget), the winner
/// re-evaluated, the record body serialized.
ScenarioResult replay_scenario(const ScenarioSpec& spec, InstanceCache& cache, Tracer& tracer,
                               std::uint64_t id, std::size_t& placements) {
  const fpsched::TaskGraph* graph = nullptr;
  {
    const Scope span(tracer, "workflows.generate", id);
    graph = &cache.graph_for(spec.cost_model);
  }
  const fpsched::ScheduleEvaluator evaluator(*graph, spec.model);
  fpsched::EvaluatorWorkspace& workspace = cache.workspace();
  const std::size_t n = graph->task_count();

  const auto run_one = [&](const fpsched::HeuristicSpec& heuristic) {
    const std::vector<fpsched::VertexId>* order = nullptr;
    {
      const Scope span(tracer, "dag.linearize", id);
      order = &cache.order(heuristic.linearization);
    }
    {
      const Scope span(tracer, "core.validate", id);
      fpsched::validate_schedule(*graph, fpsched::make_schedule(*order));
    }
    std::vector<std::size_t> budgets;
    if (!fpsched::is_budgeted(heuristic.checkpointing)) {
      budgets.push_back(0);
    } else if (n >= 2) {
      for (std::size_t b = 1; b < n; b += spec.stride) budgets.push_back(b);
      if (budgets.back() != n - 1) budgets.push_back(n - 1);
    } else {
      budgets.push_back(0);
    }
    HeuristicRun best;
    fpsched::Schedule best_schedule;
    double best_expected = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      fpsched::Schedule schedule;
      {
        const Scope span(tracer, "heuristics.place", id);
        schedule = fpsched::make_heuristic_schedule(*graph, *order, heuristic.checkpointing,
                                                    budgets[i]);
        ++placements;
      }
      double expected = 0.0;
      {
        const Scope span(tracer, "core.eval", id);
        expected = evaluator.expected_makespan(schedule, workspace, /*validate=*/false);
      }
      if (i == 0 || expected < best_expected) {
        best_expected = expected;
        best.best_budget = fpsched::is_budgeted(heuristic.checkpointing)
                               ? budgets[i]
                               : schedule.checkpoint_count();
        best_schedule = std::move(schedule);
      }
    }
    const Scope span(tracer, "core.eval", id);
    best.evaluation = evaluator.evaluate(best_schedule, workspace);
    return best;
  };

  ScenarioResult result;
  result.spec = spec;
  const auto take = [&](const HeuristicRun& run, fpsched::LinearizeMethod lin) {
    result.evaluation = run.evaluation;
    result.linearization = lin;
    result.best_budget = run.best_budget;
  };
  switch (spec.policy.kind) {
    case ScenarioPolicy::Kind::fixed_heuristic:
      take(run_one(spec.policy.heuristic), spec.policy.heuristic.linearization);
      break;
    case ScenarioPolicy::Kind::best_linearization:
      if (!fpsched::is_budgeted(spec.policy.strategy)) {
        take(run_one({fpsched::LinearizeMethod::depth_first, spec.policy.strategy}),
             fpsched::LinearizeMethod::depth_first);
      } else {
        double best = std::numeric_limits<double>::infinity();
        for (const fpsched::LinearizeMethod lin : fpsched::all_linearize_methods()) {
          const HeuristicRun run = run_one({lin, spec.policy.strategy});
          if (run.evaluation.ratio < best) {
            best = run.evaluation.ratio;
            take(run, lin);
          }
        }
      }
      break;
    case ScenarioPolicy::Kind::simulated_best:
      throw std::runtime_error("simulated policies are not part of any workload");
  }
  return result;
}

/// The per-layer times every replay reports, from the span tree.
void set_layer_times(Report& report, const Tracer& tracer, std::size_t placements) {
  const std::map<std::string, LayerTime> layers = tracer.by_name();
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? std::size_t{0} : it->second.count;
  };
  report.set("workflows.generate_ms", self("workflows.generate"), "ms",
             count("workflows.generate"));
  report.set("dag.linearize_ms", self("dag.linearize"), "ms", count("dag.linearize"));
  report.set("heuristics.place_ms", self("heuristics.place"), "ms", count("heuristics.place"));
  report.set("heuristics.placements", static_cast<double>(placements), "count");
  report.set("core.eval_ms", self("core.eval"), "ms", count("core.eval"));
  report.set("core.validate_ms", self("core.validate"), "ms", count("core.validate"));
  report.set("engine.serialize_ms", self("engine.serialize"), "ms", count("engine.serialize"));

  const auto root = layers.find("replay");
  const double wall_ms = root == layers.end() ? 0.0 : root->second.total_ms;
  const double unattributed_ms = root == layers.end() ? 0.0 : root->second.self_ms;
  report.set("replay.wall_ms", wall_ms, "ms");
  report.set("replay.unattributed_ms", unattributed_ms, "ms", 1,
             base(unattributed_ms, wall_ms) + " of the replay wall");

  std::printf("traced replay: %.3f ms wall, self time by span (ms):\n", wall_ms);
  double attributed = 0.0;
  for (const auto& [name, layer] : layers) {
    std::printf("  %-24s self %12.3f  total %12.3f  spans %zu\n", name.c_str(), layer.self_ms,
                layer.total_ms, layer.count);
    if (name != "replay") attributed += layer.self_ms;
  }
  std::printf("  attributed %.3f ms + unattributed %.3f ms = %.3f ms\n", attributed,
              unattributed_ms, attributed + unattributed_ms);
}

void write_trace(const Tracer& tracer, const RunConfig& config) {
  const std::string path =
      config.out_dir + "/trace-" + config.workload + "-" + std::to_string(config.seed) + ".json";
  tracer.write_json(path);
  std::printf("spans written to %s (%zu spans)\n", path.c_str(), tracer.spans().size());
}

/// Layers a workload does not run report 0 (the metric set is the same
/// for every workload).
void set_absent(Report& report, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (report.metrics.count(name) == 0) {
      report.set(name, 0.0, "", 0, "layer not run by this workload");
    }
  }
}

// --- Batch -----------------------------------------------------------------

Report replay_batch(const RunConfig& config) {
  Report report;
  const std::vector<std::string> names = batch_experiments(config.workload);
  const std::size_t threads = host_cpus();
  const FigureOptions options = batch_options(config.seed, threads);

  // Per experiment, interleaved so host drift hits every leg alike: the
  // untraced reference at width nproc (the counter deltas come from it),
  // the same run with the program's own tracing on, and threads 1 and 2.
  std::vector<ExperimentRun> reference;
  Counters reference_delta;
  double wall_ref = 0.0, wall_off = 0.0, wall_traced = 0.0, wall_t1 = 0.0, wall_t2 = 0.0;
  const auto same_records = [&](const ExperimentRun& run, const char* leg) {
    const ExperimentRun& ref = reference.back();
    bool same = run.records.size() == ref.records.size();
    for (std::size_t i = 0; same && i < run.records.size(); ++i) {
      same = run.records[i].line == ref.records[i].line;
    }
    report.check(same, names[reference.size() - 1] + ": records differ " + leg);
  };
  for (const std::string& name : names) {
    const Counters before = counters();
    reference.push_back(run_batch_experiment(name, options, report));
    accumulate(reference_delta, before, counters());
    wall_ref += reference.back().wall_s;

    fpsched::obs::start_tracing();
    const ExperimentRun traced = run_batch_experiment(name, options, report);
    fpsched::obs::stop_tracing();
    same_records(traced, "with obs tracing on");
    wall_traced += traced.wall_s;
    // A second untraced run after the traced one, so neither side always
    // runs first; the reference wall is the mean of the two.
    const ExperimentRun again = run_batch_experiment(name, options, report);
    same_records(again, "on a second run");
    wall_off += 0.5 * (reference.back().wall_s + again.wall_s);
    const ExperimentRun t1 = run_batch_experiment(name, batch_options(config.seed, 1), report);
    same_records(t1, "at threads 1");
    wall_t1 += t1.wall_s;
    const ExperimentRun t2 = run_batch_experiment(name, batch_options(config.seed, 2), report);
    same_records(t2, "at threads 2");
    wall_t2 += t2.wall_s;
  }
  set_engine_counters(report, reference_delta, wall_ref, threads);
  report.set("obs.trace_overhead_ratio", wall_traced / wall_off, "ratio", 1,
             base(wall_traced, wall_off) + " s (tracing on / mean of the runs around it)");
  report.set("engine.speedup_t2", wall_t1 / wall_t2, "ratio", 1,
             base(wall_t1, wall_t2) + " s (threads 1 / 2)");
  report.set("engine.speedup_t4", wall_t1 / wall_ref, "ratio", 1,
             base(wall_t1, wall_ref) + " s (threads 1 / " + std::to_string(threads) + ")");
  std::printf("workload wall: t1 %.3f s, t2 %.3f s, t%zu %.3f s, t%zu traced %.3f s\n", wall_t1,
              wall_t2, threads, wall_ref, threads, wall_traced);

  // Serial replay through the layer APIs, checked against the reference.
  Tracer tracer;
  std::size_t placements = 0;
  {
    const Scope root(tracer, "replay", 0);
    std::uint64_t id = 0;
    for (std::size_t e = 0; e < names.size(); ++e) {
      const ExperimentRun& engine_run = reference[e];
      InstanceMemo memo;
      const std::size_t count = std::min(engine_run.plan.size(), engine_run.records.size());
      for (std::size_t i = 0; i < count; ++i, ++id) {
        const fpsched::engine::PlannedScenario& planned = engine_run.plan[i];
        ScenarioResult result;
        {
          const Scope scenario(tracer, "engine.scenario", id);
          InstanceCache& cache = memo.for_spec(planned.spec, tracer, id);
          result = replay_scenario(planned.spec, cache, tracer, id, placements);
        }
        std::string body;
        {
          const Scope span(tracer, "engine.serialize", id);
          body = fpsched::engine::record_body_json(result);
        }
        const BatchRecord& record = engine_run.records[i];
        const bool same = result.best_budget == record.best_budget &&
                          result.evaluation.expected_makespan == record.expected_makespan &&
                          fpsched::engine::record_json_prefix(names[e], planned.panel) + body +
                                  "\n" ==
                              record.line;
        ++report.attempted;
        report.check(same, names[e] + " position " + std::to_string(i) +
                               ": replay differs from the engine record (best budget " +
                               std::to_string(result.best_budget) + " vs " +
                               std::to_string(record.best_budget) + ")");
      }
    }
  }
  set_layer_times(report, tracer, placements);
  write_trace(tracer, config);
  set_absent(report, {"service.queue_wait_ms", "service.job_run_ms", "service.warm_run_p50_ms",
                      "service.warm_run_p90_ms", "service.http_ttfb_ms",
                      "service.cache_hit_ratio", "service.cache_lookup_us",
                      "service.cache_insert_us", "service.cache_restore_ms"});
  return report;
}

// --- Serve -----------------------------------------------------------------

Report replay_serve(const RunConfig& config) {
  Report report;
  const std::string root = config.out_dir + "/serve-trace-" + std::to_string(::getpid());
  const ServePlan plan = make_serve_plan(config.seed, 4000);

  // Untraced 2-client leg: queue wait and job time from /runs/{id}/stats,
  // cache and engine counters across it.
  const std::string run_cache = root + "/cache-run";
  ServedRuns served;
  {
    auto service = start_service(run_cache);
    const Counters before = counters();
    served = drive_clients(service->port(), plan, config.seconds / 2.0, /*fetch_stats=*/true);
    Counters delta;
    accumulate(delta, before, counters());
    set_engine_counters(report, delta, served.wall_s, host_cpus());
    const double hits = get(delta, "fpsched_result_cache_hits_total");
    const double misses = get(delta, "fpsched_result_cache_misses_total");
    report.set("service.cache_hit_ratio", ratio(hits, hits + misses), "ratio", 1,
               base(hits, hits + misses));
  }
  std::vector<double> queued_ms;
  std::vector<double> job_ms;
  std::vector<double> warm_ms;
  std::unordered_set<std::uint64_t> distinct;
  for (const ServedRun& run : served.runs) {
    ++report.attempted;
    report.check(run.ok && run.matches_first,
                 "2-client leg, run " + std::to_string(run.index) + ": " +
                     (run.ok ? "stream differs from the request's first stream" : run.error));
    if (!run.ok) continue;
    queued_ms.push_back(run.queued_ms);
    job_ms.push_back(run.job_run_ms);
    if (plan.warm[run.index]) warm_ms.push_back(run.latency_ms);
    distinct.insert(plan.hashes[run.index].begin(), plan.hashes[run.index].end());
  }
  report.set("service.queue_wait_ms", median(queued_ms), "ms", queued_ms.size(), "p50");
  report.set("service.job_run_ms", median(job_ms), "ms", job_ms.size(), "p50");
  // A warm run touches no engine: its latency is the service path alone
  // (HTTP, queue, cache replay).
  report.set("service.warm_run_p50_ms", median(warm_ms), "ms", warm_ms.size());
  report.set("service.warm_run_p90_ms", percentile(warm_ms, 90.0), "ms", warm_ms.size());
  report.check(tail_percentile(warm_ms.size()) >= 90.0, "fewer than 100 warm runs for p90");

  // Restart on the run's cache directory: the segment replay.
  std::vector<double> restore_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t start = now_ns();
    const fpsched::service::ResultCache restored({.directory = run_cache});
    restore_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    report.check(restored.restored() == distinct.size(),
                 "cache restart restored " + std::to_string(restored.restored()) + " of " +
                     std::to_string(distinct.size()) + " entries");
  }
  report.set("service.cache_restore_ms", median(restore_ms), "ms", restore_ms.size(),
             std::to_string(distinct.size()) + " entries");

  // Serial replay of the same requests against a fresh service, with a
  // mirror cache driving the layer chain for every miss.
  Tracer tracer;
  std::size_t placements = 0;
  std::vector<double> ttfb_ms;
  {
    auto service = start_service(root + "/cache-replay");
    fpsched::service::ResultCache mirror({.directory = root + "/cache-mirror"});
    const fpsched::engine::ExperimentRegistry& registry =
        fpsched::engine::ExperimentRegistry::global();
    const Scope replay_root(tracer, "replay", 0);
    std::uint64_t scenario_id = 0;
    for (const ServedRun& run : served.runs) {
      const ServeRequest& request = plan.sequence[run.index];
      const Scope span(tracer, "request", run.index);
      ++report.attempted;
      HttpResult created;
      {
        const Scope post(tracer, "service.http_post", run.index);
        created = http_call(service->port(), "POST", "/runs?" + request.query());
      }
      if (created.status != 201) {
        report.fail("replay POST returned " + std::to_string(created.status));
        continue;
      }
      HttpResult records;
      {
        const Scope stream(tracer, "service.http_stream", run.index);
        const std::string id = std::to_string(json_uint(created.body, "id"));
        records = http_call(service->port(), "GET", "/runs/" + id + "/records");
      }
      ttfb_ms.push_back(records.first_byte_ms);
      const FigureOptions options = request_options(request);
      const auto scenarios =
          fpsched::engine::flatten_plan(registry.find(request.experiment).build(options));
      InstanceMemo memo;
      std::string assembled;
      for (const fpsched::engine::PlannedScenario& planned : scenarios) {
        const auto key = fpsched::service::ResultCacheKey::of(planned.spec, options.eval_math);
        std::optional<std::string> body;
        {
          const Scope lookup(tracer, "service.cache_lookup", scenario_id);
          body = mirror.lookup(key);
        }
        if (!body) {
          ScenarioResult result;
          {
            const Scope scenario(tracer, "engine.scenario", scenario_id);
            InstanceCache& cache = memo.for_spec(planned.spec, tracer, scenario_id);
            result = replay_scenario(planned.spec, cache, tracer, scenario_id, placements);
          }
          {
            const Scope serialize(tracer, "engine.serialize", scenario_id);
            body = fpsched::engine::record_body_json(result);
          }
          const Scope insert(tracer, "service.cache_insert", scenario_id);
          mirror.insert(key, *body);
        }
        assembled += fpsched::engine::record_json_prefix(request.experiment, planned.panel) +
                     *body + "\n";
        ++scenario_id;
      }
      report.check(assembled == records.body,
                   request.query() + ": served stream differs from the layer-API replay");
    }
  }
  remove_tree(root);

  const auto microseconds = [&](const char* name) {
    std::vector<double> us = tracer.durations_ms(name);
    for (double& value : us) value *= 1e3;
    return us;
  };
  const std::vector<double> lookup_us = microseconds("service.cache_lookup");
  const std::vector<double> insert_us = microseconds("service.cache_insert");
  report.set("service.http_ttfb_ms", median(ttfb_ms), "ms", ttfb_ms.size(), "p50");
  report.set("service.cache_lookup_us", median(lookup_us), "us", lookup_us.size(), "p50");
  report.set("service.cache_insert_us", median(insert_us), "us", insert_us.size(), "p50");
  set_layer_times(report, tracer, placements);
  write_trace(tracer, config);
  set_absent(report, {"engine.speedup_t2", "engine.speedup_t4", "obs.trace_overhead_ratio"});
  return report;
}

// --- Instance-scale --------------------------------------------------------

Report replay_instance_scale(const RunConfig& config) {
  Report report;
  Tracer tracer;
  std::size_t placements = 0;
  fpsched::LinearizeWorkspace workspace;
  {
    const Scope root(tracer, "replay", 0);
    std::uint64_t id = 0;
    for (const fpsched::WorkflowKind kind : fpsched::all_workflow_kinds()) {
      const Scope pipeline(tracer, "pipeline", id);
      ++report.attempted;
      std::unique_ptr<fpsched::TaskGraph> graph;
      {
        const Scope span(tracer, "workflows.generate", id);
        graph = std::make_unique<fpsched::TaskGraph>(
            fpsched::generate_workflow(kind, {kScaleTasks, config.seed, 0.2, {}}));
      }
      std::vector<fpsched::VertexId> order;
      {
        const Scope span(tracer, "dag.linearize", id);
        fpsched::linearize_into(graph->dag(), graph->weights_view(),
                                fpsched::LinearizeMethod::depth_first, {}, workspace, order);
      }
      fpsched::Schedule schedule;
      {
        const Scope span(tracer, "heuristics.place", id);
        schedule = fpsched::make_heuristic_schedule(*graph, std::move(order),
                                                    fpsched::CkptStrategy::by_weight,
                                                    kScaleTasks / 10);
        ++placements;
      }
      {
        const Scope span(tracer, "core.validate", id);
        fpsched::validate_schedule(*graph, schedule);
      }
      report.check(schedule.checkpoint_count() == kScaleTasks / 10,
                   fpsched::to_string(kind) + ": wrong checkpoint count");
      ++id;
    }
  }
  set_layer_times(report, tracer, placements);
  write_trace(tracer, config);
  set_absent(report, {"core.evals", "core.kernel_sweeps", "core.sweeps_per_eval", "engine.busy_s",
                      "engine.core_busy_ratio", "engine.instance_cache_hit_ratio",
                      "engine.speedup_t2", "engine.speedup_t4", "service.queue_wait_ms",
                      "service.job_run_ms", "service.warm_run_p50_ms", "service.warm_run_p90_ms",
                      "service.http_ttfb_ms", "service.cache_hit_ratio",
                      "service.cache_lookup_us", "service.cache_insert_us",
                      "service.cache_restore_ms", "obs.trace_overhead_ratio"});
  return report;
}

}  // namespace

Report replay_workload(const RunConfig& config) {
  if (config.workload == "serve-mixed") return replay_serve(config);
  if (config.workload == "instance-scale") return replay_instance_scale(config);
  return replay_batch(config);
}

}  // namespace perfbench
