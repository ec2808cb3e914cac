// fpbench: fpsched's end-to-end benchmark.
//
//   fpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//
// With --trace 0 the workload runs untraced and prints its end-to-end
// metrics; with --trace 1 it runs the traced replay and prints the
// per-layer metrics. Either way every metric is printed as
// `metric <name> <value> <unit> n=<samples>` and the last stdout line is
// one JSON object {"correct","attempted","failed","metrics"}. The exit
// code is 0 only when every output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "support/socket.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

bool release_build() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

void print_result(const perfbench::Report& report) {
  for (const auto& [name, metric] : report.metrics) {
    std::printf("metric %-32s %.17g %s n=%zu%s%s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples, metric.note.empty() ? "" : "  # ",
                metric.note.c_str());
  }
  const double error_rate = report.attempted == 0
                                ? 1.0
                                : static_cast<double>(report.failed) /
                                      static_cast<double>(report.attempted);
  std::printf("metric %-32s %.17g ratio n=%zu\n", "error_rate", error_rate, report.attempted);
  for (const std::string& error : report.errors) std::printf("check failed: %s\n", error.c_str());

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = config.seconds > 0.0;
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  const std::vector<std::string>& names = perfbench::workload_names();
  const bool known = std::find(names.begin(), names.end(), config.workload) != names.end();
  if (!known || trace < 0 || !have_seed || !have_seconds) return usage();
  if (!release_build()) {
    std::fprintf(stderr, "fpbench: refusing to report numbers from a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("host: nproc %zu, compiler %s, build %s\n", perfbench::host_cpus(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("workload %s seed %llu seconds %g trace %d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, trace);
  std::fflush(stdout);
  try {
    fpsched::ignore_sigpipe();
    std::filesystem::create_directories(config.out_dir);
    const perfbench::Report report =
        trace == 1 ? perfbench::replay_workload(config) : perfbench::run_workload(config);
    print_result(report);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpbench: %s\n", e.what());
    return 1;
  }
}
