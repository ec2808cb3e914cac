#include "workloads.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_stats.hpp"
#include "dag/linearize.hpp"
#include "engine/result_sink.hpp"
#include "heuristics/checkpoint_strategy.hpp"
#include "http_client.hpp"
#include "workflows/generator.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fpsched::engine::ExperimentRegistry;
using fpsched::engine::FigureOptions;

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& note) {
  metrics[name] = {value, unit, samples, note};
}

void Report::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 20) errors.push_back(why);
}

void Report::check(bool ok, const std::string& why) {
  if (!ok) fail(why);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"strategy-sweep", "failure-grid", "serve-mixed",
                                              "instance-scale"};
  return names;
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Batch ---------------------------------------------------------------

std::vector<std::string> batch_experiments(const std::string& workload) {
  if (workload == "strategy-sweep") return {"fig2", "fig3", "fig4", "fig5", "fig6"};
  if (workload == "failure-grid") return {"fig7", "downtime"};
  throw std::invalid_argument("not a batch workload: " + workload);
}

FigureOptions batch_options(std::uint64_t seed, std::size_t threads) {
  FigureOptions options;
  fpsched::engine::apply_quick_options(options);
  options.seed = seed;
  options.threads = threads;
  options.tasks = 200;
  return options;
}

ExperimentRun run_batch_experiment(const std::string& name, const FigureOptions& options,
                                   Report& report) {
  const fpsched::engine::Experiment& experiment = ExperimentRegistry::global().find(name);
  ExperimentRun run;
  run.plan = fpsched::engine::flatten_plan(experiment.build(options));
  run.records.reserve(run.plan.size());
  bool records_ok = true;
  fpsched::engine::CallbackSink sink([&](const fpsched::engine::ResultRecord& record) {
    const fpsched::Evaluation& evaluation = record.result.evaluation;
    records_ok = records_ok && std::isfinite(evaluation.expected_makespan) &&
                 std::isfinite(evaluation.ratio) && evaluation.ratio >= 1.0;
    run.records.push_back({fpsched::engine::to_json(record) + "\n", record.result.best_budget,
                           evaluation.expected_makespan, record.result.spec.task_count});
  });
  fpsched::engine::ResultSink* sinks[] = {&sink};
  const std::uint64_t start = now_ns();
  fpsched::engine::run_experiment(experiment, options, sinks, nullptr);
  run.wall_s = seconds_between(start, now_ns());
  ++report.attempted;
  if (run.records.size() != run.plan.size()) {
    report.fail(name + ": " + std::to_string(run.records.size()) + " records, plan has " +
                std::to_string(run.plan.size()));
  } else if (!records_ok) {
    report.fail(name + ": a record is not finite or has ratio < 1");
  }
  return run;
}

std::string round_digest(const std::vector<ExperimentRun>& round) {
  std::string ndjson;
  for (const ExperimentRun& run : round) {
    for (const BatchRecord& record : run.records) ndjson += record.line;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fpsched::engine::fnv1a64(ndjson)));
  return hex;
}

std::string pinned_digest(const std::string& workload) {
  // FNV-1a 64 of `fpsched_run <experiments> --quick --format ndjson`
  // (seed 42, exact math), concatenated in workload order.
  if (workload == "strategy-sweep") return "ee7adce1ecf6b6d7";
  if (workload == "failure-grid") return "257cb08bde76a38d";
  return "";
}

namespace {

constexpr std::size_t kSetupReps = 31;

/// Times kSetupReps set-ups (seconds), each after an untimed `prepare`.
/// Every workload takes one burst before and one after its timed phase
/// and reports the median of both, so a single momentary host state
/// (thread wake-ups dominate the service's start) does not decide it.
template <typename Prepare, typename Body>
void time_setups(std::vector<double>& samples, Prepare&& prepare, Body&& body) {
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    prepare();
    const std::uint64_t start = now_ns();
    body();
    samples.push_back(seconds_between(start, now_ns()));
  }
}

void set_setup(Report& report, const std::vector<double>& samples) {
  report.set("setup_s", median(samples), "s", samples.size(),
             "median of set-ups before and after the timed phase");
}

void no_prepare() {}

/// Latency percentiles of one class of runs: the median and the highest
/// percentile with ten samples beyond it, under the fixed metric names.
void set_latency(Report& report, const std::string& prefix, const std::vector<double>& ms) {
  const double tail = tail_percentile(ms.size());
  std::string quartile_note;
  if (ms.size() >= 2) {
    const Quartiles q = quartiles(ms);
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "quartiles %.4g / %.4g / %.4g ms", q.q1, q.q2, q.q3);
    quartile_note = buffer;
  }
  report.set(prefix + "_p50_ms", median(ms), "ms", ms.size(), quartile_note);
  report.set(prefix + "_p90_ms", percentile(ms, 90.0), "ms", ms.size(),
             tail >= 90.0 ? "" : "fewer than 100 samples: tail percentile is p" +
                                     std::to_string(static_cast<int>(tail)));
  if (tail < 90.0 && !ms.empty()) {
    report.fail(prefix + " runs: " + std::to_string(ms.size()) +
                " samples, p90 needs 100 (ten beyond it)");
  }
}

Report run_batch(const RunConfig& config) {
  Report report;
  const std::vector<std::string> names = batch_experiments(config.workload);
  const std::size_t threads = host_cpus();
  const FigureOptions options = batch_options(config.seed, threads);

  // Set-up: registry and every plan built, as a run of the CLI does
  // before its first scenario.
  const auto build_plans = [&] {
    ExperimentRegistry registry;
    fpsched::engine::register_paper_figures(registry);
    for (const std::string& name : names) {
      if (fpsched::engine::flatten_plan(registry.find(name).build(options)).empty()) {
        throw std::runtime_error(name + " has an empty plan");
      }
    }
  };
  std::vector<double> setup_samples;
  time_setups(setup_samples, no_prepare, build_plans);

  // Whole rounds of the workload's experiments until the budget is spent.
  std::vector<std::vector<ExperimentRun>> rounds;
  const double cpu_start = process_cpu_seconds();
  const std::uint64_t start = now_ns();
  while (rounds.empty() || seconds_between(start, now_ns()) < config.seconds) {
    std::vector<ExperimentRun> round;
    for (const std::string& name : names) {
      round.push_back(run_batch_experiment(name, options, report));
    }
    rounds.push_back(std::move(round));
  }
  const double wall_s = seconds_between(start, now_ns());
  const double cpu_s = process_cpu_seconds() - cpu_start;
  time_setups(setup_samples, no_prepare, build_plans);
  set_setup(report, setup_samples);

  // Output checks: every round byte-identical to the first, and the
  // default seed's records equal to the pinned digest.
  const std::string digest = round_digest(rounds.front());
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    report.check(round_digest(rounds[r]) == digest,
                 "round " + std::to_string(r) + " records differ from round 0");
  }
  if (config.seed == kDefaultSeed) {
    report.check(digest == pinned_digest(config.workload),
                 "records digest " + digest + " != pinned " + pinned_digest(config.workload));
  }
  std::printf("records digest (round 0): %s\n", digest.c_str());

  // Per-experiment medians over rounds: a round's records over the sum of
  // the median experiment walls is the batch's scenarios per second.
  std::size_t round_records = 0;
  std::size_t round_tasks = 0;
  double round_wall = 0.0;
  std::vector<double> run_ms;
  for (std::size_t e = 0; e < names.size(); ++e) {
    std::vector<double> walls;
    for (const std::vector<ExperimentRun>& round : rounds) {
      walls.push_back(round[e].wall_s);
      run_ms.push_back(round[e].wall_s * 1e3);
    }
    const ExperimentRun& first = rounds.front()[e];
    round_records += first.records.size();
    for (const BatchRecord& record : first.records) round_tasks += record.tasks;
    round_wall += median(walls);
    std::printf("  %-9s %4zu records  median %.4f s over %zu runs\n", names[e].c_str(),
                first.records.size(), median(walls), walls.size());
  }
  const std::size_t total_records = round_records * rounds.size();
  const std::size_t runs = names.size() * rounds.size();
  report.set("scenarios_per_s", static_cast<double>(round_records) / round_wall, "1/s", runs,
             std::to_string(round_records) + " records per round / median round wall");
  report.set("tasks_per_s", static_cast<double>(round_tasks) / round_wall, "1/s", runs,
             "sum of record task counts per round / median round wall");
  report.set("cpu_s_per_scenario", cpu_s / static_cast<double>(total_records), "s",
             total_records, std::to_string(cpu_s) + " cpu s / " + std::to_string(total_records));
  report.set("runs_per_s", static_cast<double>(runs) / wall_s, "1/s", runs);
  report.set("cold_run_p50_ms", median(run_ms), "ms", run_ms.size(),
             "every batch run computes all its scenarios (no result cache)");
  return report;
}

// --- Instance-scale ------------------------------------------------------

/// generate -> DF linearize -> CkptW at n/10 -> validate; returns the
/// pipeline's wall seconds.
double run_pipeline(fpsched::WorkflowKind kind, std::size_t n, std::uint64_t seed,
                    fpsched::LinearizeWorkspace& workspace, Report& report) {
  ++report.attempted;
  const std::uint64_t start = now_ns();
  const fpsched::TaskGraph graph = fpsched::generate_workflow(kind, {n, seed, 0.2, {}});
  std::vector<fpsched::VertexId> order;
  fpsched::linearize_into(graph.dag(), graph.weights_view(),
                          fpsched::LinearizeMethod::depth_first, {}, workspace, order);
  const std::size_t budget = n / 10;
  std::vector<std::uint8_t> flags =
      fpsched::place_checkpoints(graph, order, fpsched::CkptStrategy::by_weight, budget);
  const fpsched::Schedule schedule(std::move(order), std::move(flags));
  fpsched::validate_schedule(graph, schedule);
  const double wall_s = seconds_between(start, now_ns());
  const std::string what = fpsched::to_string(kind) + " n=" + std::to_string(n);
  report.check(graph.task_count() == n, what + ": wrong task count");
  report.check(schedule.checkpoint_count() == budget,
               what + ": CkptW placed " + std::to_string(schedule.checkpoint_count()) +
                   " checkpoints, budget " + std::to_string(budget));
  return wall_s;
}

Report run_instance_scale(const RunConfig& config) {
  Report report;
  fpsched::LinearizeWorkspace workspace;
  const auto kinds = fpsched::all_workflow_kinds();
  // Set-up: one small pipeline per kind, so code and allocator are warm
  // before the first timed 10^6-task instance.
  Report warmup;
  const auto small_pipelines = [&] {
    for (const fpsched::WorkflowKind kind : kinds) {
      run_pipeline(kind, 1000, config.seed, workspace, warmup);
    }
  };
  std::vector<double> setup_samples;
  time_setups(setup_samples, no_prepare, small_pipelines);

  std::vector<double> ms;
  std::map<std::string, std::vector<double>> by_kind;
  const double cpu_start = process_cpu_seconds();
  const std::uint64_t start = now_ns();
  while (ms.empty() || seconds_between(start, now_ns()) < config.seconds) {
    for (const fpsched::WorkflowKind kind : kinds) {
      const double wall = run_pipeline(kind, kScaleTasks, config.seed, workspace, report);
      ms.push_back(wall * 1e3);
      by_kind[fpsched::to_string(kind)].push_back(wall);
    }
  }
  const double wall_s = seconds_between(start, now_ns());
  const double cpu_s = process_cpu_seconds() - cpu_start;
  time_setups(setup_samples, no_prepare, small_pipelines);
  report.check(warmup.failed == 0, "set-up pipelines failed");
  set_setup(report, setup_samples);
  // A round's tasks over the sum of per-kind median walls.
  double round_wall = 0.0;
  for (const auto& [kind, walls] : by_kind) {
    round_wall += median(walls);
    std::printf("  %-10s median %.4f s over %zu runs\n", kind.c_str(), median(walls), walls.size());
  }
  const double round_tasks = static_cast<double>(kScaleTasks * kinds.size());
  report.set("tasks_per_s", round_tasks / round_wall, "1/s", ms.size(),
             "10^6 tasks x 4 kinds / median round wall");
  report.set("scenarios_per_s", static_cast<double>(kinds.size()) / round_wall, "1/s", ms.size(),
             "scheduled instances per second");
  report.set("cpu_s_per_scenario", cpu_s / static_cast<double>(ms.size()), "s", ms.size());
  report.set("runs_per_s", static_cast<double>(ms.size()) / wall_s, "1/s", ms.size());
  report.set("cold_run_p50_ms", median(ms), "ms", ms.size(), "one pipeline per run");
  return report;
}

}  // namespace

// --- Serve ---------------------------------------------------------------

void remove_tree(const std::string& path) {
  std::error_code ignored;
  fs::remove_all(path, ignored);
}

std::unique_ptr<fpsched::service::ExperimentService> start_service(const std::string& cache_dir) {
  fs::create_directories(cache_dir);
  fpsched::service::ServiceOptions options;
  options.http.port = 0;
  options.http.threads = 4;
  options.jobs.cache.directory = cache_dir;
  auto service = std::make_unique<fpsched::service::ExperimentService>(options);
  service->start();
  if (http_call(service->port(), "GET", "/healthz").status != 200) {
    throw std::runtime_error("service did not answer /healthz");
  }
  return service;
}

ServePlan make_serve_plan(std::uint64_t seed, std::size_t count) {
  ServePlan plan;
  plan.sequence = make_request_sequence(seed, count);
  for (const ServeRequest& request : plan.sequence) {
    plan.hashes.push_back(scenario_hashes(request, ExperimentRegistry::global()));
  }
  plan.warm = classify_warm(plan.hashes);
  return plan;
}

ServedRuns drive_clients(std::uint16_t port, const ServePlan& plan, double min_seconds,
                         bool fetch_stats) {
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kMinPerClass = 100;
  constexpr double kMaxSeconds = 120.0;
  const std::vector<ServeRequest>& sequence = plan.sequence;
  std::mutex submit_mutex;  // serializes POSTs: submission order == sequence order
  std::mutex done_mutex;
  std::size_t next = 0;
  std::atomic<bool> stop{false};
  ServedRuns served;
  std::size_t warm_done = 0;
  std::size_t cold_done = 0;
  const std::uint64_t start = now_ns();

  const auto client = [&] {
    for (;;) {
      ServedRun run;
      std::uint64_t posted = 0;
      {
        const std::lock_guard<std::mutex> lock(submit_mutex);
        if (stop.load() || next >= sequence.size()) return;
        run.index = next++;
        posted = now_ns();
        try {
          const HttpResult post = http_call(port, "POST", "/runs?" + sequence[run.index].query());
          if (post.status == 201) {
            run.job_id = json_uint(post.body, "id");
          } else {
            run.error = "POST /runs returned " + std::to_string(post.status);
          }
        } catch (const std::exception& e) {
          run.error = e.what();
        }
      }
      std::string body;
      if (run.error.empty()) {
        const std::string target = "/runs/" + std::to_string(run.job_id);
        try {
          HttpResult records = http_call(port, "GET", target + "/records");
          run.latency_ms = static_cast<double>(now_ns() - posted) * 1e-6;
          body = std::move(records.body);
          run.ok = records.status == 200;
          if (!run.ok) run.error = "GET records returned " + std::to_string(records.status);
          if (run.ok && fetch_stats) {
            const HttpResult stats = http_call(port, "GET", target + "/stats");
            run.queued_ms = json_number(stats.body, "queued_seconds") * 1e3;
            run.job_run_ms = json_number(stats.body, "run_seconds") * 1e3;
          }
        } catch (const std::exception& e) {
          run.error = e.what();
          run.ok = false;
        }
      }
      const std::lock_guard<std::mutex> lock(done_mutex);
      if (run.ok) {
        const auto [first, inserted] = served.first_streams.try_emplace(
            sequence[run.index].query(), FirstStream{run.index, std::string()});
        if (inserted) {
          first->second.body = std::move(body);
        } else {
          run.matches_first = first->second.body == body;
        }
      }
      (plan.warm[run.index] ? warm_done : cold_done) += 1;
      served.runs.push_back(std::move(run));
      const double elapsed = seconds_between(start, now_ns());
      if ((elapsed >= min_seconds && warm_done >= kMinPerClass && cold_done >= kMinPerClass) ||
          elapsed >= kMaxSeconds) {
        stop.store(true);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client);
  for (std::thread& thread : threads) thread.join();
  served.wall_s = seconds_between(start, now_ns());
  std::sort(served.runs.begin(), served.runs.end(),
            [](const ServedRun& a, const ServedRun& b) { return a.index < b.index; });
  return served;
}

ServedTotals check_served(const ServedRuns& served, const ServePlan& plan, Report& report) {
  // Each distinct stream: record count, finite records, and the bytes of
  // the same request run once more, in process, through NdjsonSink.
  struct StreamCheck {
    bool ok = false;
    ServedTotals totals;
  };
  std::map<std::string, StreamCheck> checked;
  for (const auto& [query, first] : served.first_streams) {
    StreamCheck& check = checked[query];
    bool finite = true;
    std::istringstream stream(first.body);
    for (std::string line; std::getline(stream, line);) {
      ++check.totals.records;
      check.totals.tasks += json_uint(line, "tasks");
      const double ratio = json_number(line, "ratio");
      const double expected = json_number(line, "expected_makespan");
      finite = finite && std::isfinite(ratio) && std::isfinite(expected) && ratio >= 1.0;
    }
    const ServeRequest& request = plan.sequence[first.index];
    std::ostringstream reference;
    fpsched::engine::NdjsonSink sink(reference);
    fpsched::engine::ResultSink* sinks[] = {&sink};
    fpsched::engine::run_experiment(ExperimentRegistry::global().find(request.experiment),
                                    request_options(request), sinks, nullptr);
    const std::size_t planned = plan.hashes[first.index].size();
    check.ok = check.totals.records == planned && finite && reference.str() == first.body;
    report.check(check.totals.records == planned,
                 query + ": " + std::to_string(check.totals.records) + " records, plan has " +
                     std::to_string(planned));
    report.check(finite, query + ": a record is not finite or has ratio < 1");
    report.check(reference.str() == first.body,
                 query + ": served stream differs from the in-process NdjsonSink stream");
  }
  ServedTotals totals;
  for (const ServedRun& run : served.runs) {
    ++report.attempted;
    const std::string query = plan.sequence[run.index].query();
    if (!run.ok) {
      report.fail("run " + std::to_string(run.index) + " (" + query + "): " + run.error);
    } else if (!run.matches_first) {
      report.fail(query + ": stream of run " + std::to_string(run.index) + " differs from run " +
                  std::to_string(served.first_streams.at(query).index));
    } else if (checked.at(query).ok) {
      totals.records += checked.at(query).totals.records;
      totals.tasks += checked.at(query).totals.tasks;
    }
  }
  return totals;
}

namespace {

Report run_serve(const RunConfig& config) {
  Report report;
  const std::string root = config.out_dir + "/serve-" + std::to_string(::getpid());
  // Set-up: an empty cache directory, the service constructed and
  // listening, /healthz answered. The previous instance is stopped before
  // the clock starts; the last one of the first burst serves the run.
  std::unique_ptr<fpsched::service::ExperimentService> service;
  std::size_t started = 0;
  const auto stop_service = [&] { service.reset(); };
  const auto start_one = [&] {
    service = start_service(root + "/cache-" + std::to_string(started++));
  };
  std::vector<double> setup_samples;
  time_setups(setup_samples, stop_service, start_one);

  const ServePlan plan = make_serve_plan(config.seed, 4000);
  const double cpu_start = process_cpu_seconds();
  const ServedRuns served =
      drive_clients(service->port(), plan, config.seconds, /*fetch_stats=*/false);
  const double cpu_s = process_cpu_seconds() - cpu_start;
  time_setups(setup_samples, stop_service, start_one);
  service.reset();
  set_setup(report, setup_samples);

  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  for (const ServedRun& run : served.runs) {
    if (run.ok) (plan.warm[run.index] ? warm_ms : cold_ms).push_back(run.latency_ms);
  }
  const ServedTotals totals = check_served(served, plan, report);
  remove_tree(root);

  set_latency(report, "cold_run", cold_ms);
  set_latency(report, "warm_run", warm_ms);
  const std::size_t runs = served.runs.size();
  const auto records = static_cast<double>(totals.records);
  report.set("runs_per_s", static_cast<double>(runs) / served.wall_s, "1/s", runs);
  report.set("scenarios_per_s", records / served.wall_s, "1/s", runs,
             std::to_string(totals.records) + " records streamed");
  report.set("tasks_per_s", static_cast<double>(totals.tasks) / served.wall_s, "1/s", runs);
  report.set("cpu_s_per_scenario", records == 0 ? 0.0 : cpu_s / records, "s", totals.records);
  return report;
}

}  // namespace

Report run_workload(const RunConfig& config) {
  Report report;
  if (config.workload == "serve-mixed") {
    report = run_serve(config);
  } else if (config.workload == "instance-scale") {
    report = run_instance_scale(config);
  } else {
    report = run_batch(config);
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace perfbench
