// Absolute golden digests: every registered experiment's NDJSON record
// stream, at one small fixed configuration, must hash to a committed
// constant. The determinism suite only compares one configuration with
// another, so a change that moved every record the same way (a reordered
// reduction, a perturbed generator, a new field) would pass it; this test
// pins the bytes themselves. The result cache keys records by spec alone,
// so a silent drift here would also make it serve stale records.
//
// Updating a digest is a deliberate act: do it only in a change that
// intends to alter record bytes, and say so in its description.
//
// Reproduce a digest from the command line: FNV-1a 64 (engine::fnv1a64)
// over the whole stdout of
//   fpsched_run <name> --sizes 50,100 --stride 8 --tasks 60 --trials 25
//       --threads 1 --format ndjson
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "engine/experiment.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"

namespace fpsched::engine {
namespace {

FigureOptions golden_options() {
  FigureOptions options;
  options.sizes = {50, 100};
  options.stride = 8;
  options.tasks = 60;
  options.trials = 25;
  options.threads = 1;
  options.eval_math = EvalMath::exact;
  return options;
}

std::string run_ndjson(const std::string& name, const FigureOptions& options) {
  std::ostringstream out;
  NdjsonSink sink(out);
  ResultSink* sinks[] = {&sink};
  run_experiment(ExperimentRegistry::global().find(name), options, sinks, nullptr);
  return out.str();
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64, value);
  return buffer;
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

constexpr Golden kGoldens[] = {
    {"fig2", 0xf2f00611e5d7d1f8ULL},
    {"fig3", 0xf6b678aa9934539dULL},
    {"fig4", 0x7397be286ab2942fULL},
    {"fig5", 0xc31766246636689aULL},
    {"fig6", 0x082ac08199c5c833ULL},
    {"fig7", 0x8a5ae318edf0d4e4ULL},
    {"downtime", 0x06ca5bd2130af1e0ULL},
    {"theory", 0xf35cd00d6f16fa68ULL},
    {"robustness", 0x0464d3744e2825ceULL},
};

TEST(GoldenDigest, EveryRegisteredExperimentIsPinned) {
  std::set<std::string> pinned;
  for (const Golden& golden : kGoldens) pinned.insert(golden.name);
  for (const Experiment* experiment : ExperimentRegistry::global().experiments()) {
    EXPECT_TRUE(pinned.count(experiment->name) == 1)
        << experiment->name << " has no golden digest";
  }
  EXPECT_EQ(pinned.size(), ExperimentRegistry::global().experiments().size());
}

TEST(GoldenDigest, RecordStreamsMatchCommittedDigests) {
  const FigureOptions options = golden_options();
  for (const Golden& golden : kGoldens) {
    const std::string ndjson = run_ndjson(golden.name, options);
    ASSERT_FALSE(ndjson.empty()) << golden.name;
    EXPECT_EQ(hex(fnv1a64(ndjson)), hex(golden.digest))
        << golden.name << ": record bytes moved (" << ndjson.size() << " bytes)";
  }
}

}  // namespace
}  // namespace fpsched::engine
