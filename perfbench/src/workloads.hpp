// The four benchmark workloads and their traced replays.
//
//   strategy-sweep  fig2-fig6 on the --quick grid, engine width nproc
//   failure-grid    fig7 + downtime at tasks=200, same grid rules
//   serve-mixed     2 closed-loop HTTP clients over a seed-generated
//                   request sequence against an in-process service
//   instance-scale  generate -> DF linearize -> CkptW at n/10 ->
//                   validate for the four workflow kinds at 10^6 tasks
//
// run_workload() is the untraced measurement (end-to-end metrics);
// replay_workload() is the serial traced replay through the layer APIs
// (per-layer metrics). Both check the program's outputs and count every
// failed or check-failing operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  std::string out_dir = ".bench_out";  // scratch space inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // base of a ratio, percentile used, ...
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& note = "");
  /// Counts one failed operation and keeps the reason for the log.
  void fail(const std::string& why);
  /// fail() unless `ok`.
  void check(bool ok, const std::string& why);
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Engine width: the CPUs this process may run on (nproc).
std::size_t host_cpus();

Report run_workload(const RunConfig& config);
Report replay_workload(const RunConfig& config);

/// Default seed of the batch workloads (FigureOptions' default), whose
/// records are pinned by digest.
inline constexpr std::uint64_t kDefaultSeed = 42;

}  // namespace perfbench
