// Pieces shared by the untraced workloads and the traced replays.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "requests.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

// --- Batch workloads -----------------------------------------------------

/// Registered experiments of a batch workload, in run order.
std::vector<std::string> batch_experiments(const std::string& workload);

/// The --quick grid (sizes 50/100/200/300, stride 4) at tasks=200 with the
/// workload seed and the given engine width.
fpsched::engine::FigureOptions batch_options(std::uint64_t seed, std::size_t threads);

/// One record as the engine produced it.
struct BatchRecord {
  std::string line;  // NDJSON line, newline included
  std::size_t best_budget = 0;
  double expected_makespan = 0.0;
  std::size_t tasks = 0;
};

/// One run_experiment call.
struct ExperimentRun {
  std::vector<fpsched::engine::PlannedScenario> plan;  // flatten_plan order
  std::vector<BatchRecord> records;
  double wall_s = 0.0;
};

/// Runs `name` through engine::run_experiment and checks its output: the
/// record count equals the flatten_plan size, every record is finite with
/// ratio >= 1. Check failures are counted in `report`.
ExperimentRun run_batch_experiment(const std::string& name,
                                   const fpsched::engine::FigureOptions& options, Report& report);

/// FNV-1a 64 (engine::fnv1a64) of the concatenated NDJSON of a round, in hex.
std::string round_digest(const std::vector<ExperimentRun>& round);

/// The pinned digest of a batch workload's default-seed records.
std::string pinned_digest(const std::string& workload);

// --- Serve workload ------------------------------------------------------

/// An in-process ExperimentService on an ephemeral loopback port whose
/// result-cache directory starts empty; start() returns once /healthz
/// answers.
std::unique_ptr<fpsched::service::ExperimentService> start_service(const std::string& cache_dir);

/// One served run: POST /runs to the last record byte.
struct ServedRun {
  std::size_t index = 0;  // position in the request sequence
  std::uint64_t job_id = 0;
  bool ok = false;        // 201 + 200 + complete stream
  std::string error;
  double latency_ms = 0.0;
  bool matches_first = true;  // stream byte-equal to the first one of its request
  double queued_ms = -1;      // from /runs/{id}/stats when fetched
  double job_run_ms = -1;
};

/// The first stream served for a request (later streams of the same
/// request are compared with it as they arrive, then dropped).
struct FirstStream {
  std::size_t index = 0;  // the run that served it
  std::string body;       // de-chunked NDJSON
};

struct ServedRuns {
  std::vector<ServedRun> runs;                     // sequence order
  std::map<std::string, FirstStream> first_streams;  // by request query
  double wall_s = 0.0;
};

/// The request sequence with scenario hashes and warm flags.
struct ServePlan {
  std::vector<ServeRequest> sequence;
  std::vector<std::vector<std::uint64_t>> hashes;
  std::vector<bool> warm;
};
ServePlan make_serve_plan(std::uint64_t seed, std::size_t count);

/// Two closed-loop clients: each takes the next request of the plan (the
/// POST is sent under a shared lock, so submission order is sequence
/// order), waits for its full record stream, and repeats until
/// min_seconds have passed and the cold and warm classes each hold 100
/// runs (p90 then has ten samples beyond it). With fetch_stats each
/// client also reads GET /runs/{id}/stats.
ServedRuns drive_clients(std::uint16_t port, const ServePlan& plan, double min_seconds,
                         bool fetch_stats);

/// Checks served runs: statuses, every stream byte-equal to the first
/// stream of the same request, and each first stream's record count
/// against the plan, finite records with ratio >= 1, and bytes equal to
/// the in-process NdjsonSink output of run_experiment. Returns the
/// records and the sum of their task counts over every good run.
struct ServedTotals {
  std::size_t records = 0;
  std::size_t tasks = 0;
};
ServedTotals check_served(const ServedRuns& served, const ServePlan& plan, Report& report);

/// Removes a directory tree inside the scratch area (best effort).
void remove_tree(const std::string& path);

// --- Instance-scale ------------------------------------------------------

inline constexpr std::size_t kScaleTasks = 1'000'000;

}  // namespace perfbench
