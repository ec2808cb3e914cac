// ResultCache suite: cache-key sensitivity to every ScenarioSpec field,
// memory-only round trips (anonymous segments, no file in any directory),
// FIFO eviction under max_entries, and the on-disk segment store —
// restart restore, segment rotation, torn-write tolerance, lines altered
// after indexing, and appends that fail.
#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace fpsched::service {
namespace {

/// A fully-populated baseline spec; the key tests perturb one field at a
/// time.
engine::ScenarioSpec base_spec() {
  engine::ScenarioSpec spec;
  spec.workflow = WorkflowKind::montage;
  spec.task_count = 50;
  spec.model = FailureModel(1e-3, 60.0);
  spec.cost_model = CostModel::proportional(0.1);
  spec.policy = engine::ScenarioPolicy::fixed(
      {LinearizeMethod::depth_first, CkptStrategy::by_weight});
  spec.workflow_seed = 42;
  spec.weight_cv = 0.2;
  spec.stride = 16;
  spec.scenario_index = 3;
  return spec;
}

/// RAII temp directory under the system temp root.
class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ResultCacheKeyTest, EveryFieldChangesTheKey) {
  const ResultCacheKey base = ResultCacheKey::of(base_spec(), EvalMath::exact);
  // One perturbation per ScenarioSpec field (policy sub-fields included).
  using Mutator = void (*)(engine::ScenarioSpec&);
  const Mutator mutators[] = {
      [](engine::ScenarioSpec& s) { s.workflow = WorkflowKind::ligo; },
      [](engine::ScenarioSpec& s) { s.task_count = 51; },
      [](engine::ScenarioSpec& s) { s.model = FailureModel(2e-3, 60.0); },
      [](engine::ScenarioSpec& s) { s.model = FailureModel(1e-3, 61.0); },
      [](engine::ScenarioSpec& s) { s.cost_model = CostModel::constant(0.1); },
      [](engine::ScenarioSpec& s) { s.cost_model = CostModel::proportional(0.2); },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::best_lin(CkptStrategy::by_weight);
      },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::fixed(
            {LinearizeMethod::breadth_first, CkptStrategy::by_weight});
      },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::fixed(
            {LinearizeMethod::depth_first, CkptStrategy::by_cost});
      },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::simulated(
            engine::ScenarioPolicy::SimDistribution::weibull, 0.7, 100, 9);
      },
      [](engine::ScenarioSpec& s) { s.workflow_seed = 43; },
      [](engine::ScenarioSpec& s) { s.weight_cv = 0.3; },
      [](engine::ScenarioSpec& s) { s.stride = 8; },
      [](engine::ScenarioSpec& s) { s.linearize.outweight = OutweightMode::descendants; },
      [](engine::ScenarioSpec& s) { s.linearize.seed = 7; },
      [](engine::ScenarioSpec& s) { s.scenario_index = 4; },
  };

  std::set<std::string> canonicals = {base.canonical};
  for (const Mutator mutate : mutators) {
    engine::ScenarioSpec spec = base_spec();
    mutate(spec);
    const ResultCacheKey key = ResultCacheKey::of(spec, EvalMath::exact);
    EXPECT_TRUE(canonicals.insert(key.canonical).second)
        << "canonical collision: " << key.canonical;
    EXPECT_NE(key.hash, base.hash) << key.canonical;
  }
  // The math backend is part of the identity: fast and exact kernels may
  // produce different record bytes for the same spec.
  const ResultCacheKey fast = ResultCacheKey::of(base_spec(), EvalMath::fast);
  EXPECT_NE(fast.canonical, base.canonical);
  EXPECT_NE(fast.hash, base.hash);
}

TEST(ResultCacheTest, InMemoryRoundTripCountsHitsAndMisses) {
  ResultCache cache;
  const ResultCacheKey key = ResultCacheKey::of(base_spec(), EvalMath::exact);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, "payload-bytes");
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_EQ(cache.size(), 1u);
  // First write wins; entries are immutable.
  cache.insert(key, "other-bytes");
  EXPECT_EQ(*cache.lookup(key), "payload-bytes");
  EXPECT_EQ(cache.size(), 1u);
  // The uncounted replay accessors see the same entry by hash.
  EXPECT_TRUE(cache.contains(key.hash));
  EXPECT_EQ(*cache.fetch(key.hash), "payload-bytes");
  EXPECT_FALSE(cache.contains(key.hash + 1));
  EXPECT_FALSE(cache.fetch(key.hash + 1).has_value());
}

TEST(ResultCacheTest, EvictsInsertionFifoBeyondMaxEntries) {
  ResultCache cache({.max_entries = 2});
  std::vector<ResultCacheKey> keys;
  for (std::size_t tasks : {50, 60, 70}) {
    auto spec = base_spec();
    spec.task_count = tasks;
    keys.push_back(ResultCacheKey::of(spec, EvalMath::exact));
    cache.insert(keys.back(), "payload-" + std::to_string(tasks));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(keys[0]).has_value());  // oldest evicted
  EXPECT_TRUE(cache.lookup(keys[1]).has_value());
  EXPECT_TRUE(cache.lookup(keys[2]).has_value());
}

TEST(ResultCacheTest, SegmentStoreSurvivesReopen) {
  const TempDir dir("fpsched_result_cache_reopen_test");
  std::vector<ResultCacheKey> keys;
  for (std::size_t tasks : {50, 60, 70}) {
    auto spec = base_spec();
    spec.task_count = tasks;
    keys.push_back(ResultCacheKey::of(spec, EvalMath::exact));
  }
  {
    ResultCache cache({.directory = dir.path().string()});
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache.insert(keys[i], "payload-" + std::to_string(i));
    }
    EXPECT_EQ(cache.restored(), 0u);
  }
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 3u);
  EXPECT_EQ(reopened.size(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto hit = reopened.lookup(keys[i]);
    ASSERT_TRUE(hit.has_value()) << keys[i].canonical;
    EXPECT_EQ(*hit, "payload-" + std::to_string(i));
  }
}

TEST(ResultCacheTest, RotatesSegmentsAndLoadsAllOfThem) {
  const TempDir dir("fpsched_result_cache_rotate_test");
  {
    // A tiny rotation threshold: every insert lands in its own segment.
    ResultCache cache({.directory = dir.path().string(), .max_segment_bytes = 1});
    for (std::size_t tasks : {50, 60, 70}) {
      auto spec = base_spec();
      spec.task_count = tasks;
      cache.insert(ResultCacheKey::of(spec, EvalMath::exact), "p");
    }
  }
  std::size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".ndjson") ++segments;
  }
  EXPECT_GE(segments, 2u);
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 3u);
}

TEST(ResultCacheTest, SkipsTornAndCorruptSegmentLines) {
  const TempDir dir("fpsched_result_cache_corrupt_test");
  const ResultCacheKey key = ResultCacheKey::of(base_spec(), EvalMath::exact);
  {
    ResultCache cache({.directory = dir.path().string()});
    cache.insert(key, "good-payload");
  }
  {
    // Simulate a crash mid-append plus stray garbage: neither may poison
    // the good entry or fail the restart load.
    std::ofstream segment(dir.path() / "segment-000001.ndjson", std::ios::app);
    segment << "not json at all\n";
    segment << R"({"key":"zzzz","spec":"x","payload":"y"})" << "\n";  // bad hex
    segment << R"({"key":"0000000000000001","spec":"mismatch","payload":"y"})"
            << "\n";                                  // hash != fnv1a64(spec)
    segment << R"({"key":"0000000000000002","spec":)";  // torn tail write
  }
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 1u);
  const auto hit = reopened.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "good-payload");
}

TEST(ResultCacheTest, ProbeVerifiesWithoutReturningThePayload) {
  ResultCache cache;
  const ResultCacheKey key = ResultCacheKey::of(base_spec(), EvalMath::exact);
  EXPECT_FALSE(cache.probe(key));
  cache.insert(key, "payload \"quoted\" \\ with\nescapes\t\x01");
  EXPECT_TRUE(cache.probe(key));
  EXPECT_EQ(*cache.fetch(key.hash), "payload \"quoted\" \\ with\nescapes\t\x01");
  // Same hash, different canonical text: a collision degrades to a miss.
  ResultCacheKey collision = key;
  collision.canonical += " ";
  EXPECT_FALSE(cache.probe(collision));
  EXPECT_FALSE(cache.lookup(collision).has_value());
}

/// Number of entries in `dir`.
std::size_t entry_count(const std::filesystem::path& dir) {
  return static_cast<std::size_t>(std::distance(std::filesystem::directory_iterator(dir),
                                                std::filesystem::directory_iterator()));
}

TEST(ResultCacheTest, MemoryOnlyModeCreatesNoFileInAnyDirectory) {
  // The anonymous segments live under the temp directory ($TMPDIR) but
  // never under a name: neither there nor in the working directory does
  // a file appear, even across segment rotations.
  const TempDir tmp("fpsched_result_cache_tmpdir_test");
  const TempDir cwd("fpsched_result_cache_cwd_test");
  const char* saved_tmpdir = ::getenv("TMPDIR");
  const std::optional<std::string> saved =
      saved_tmpdir ? std::optional<std::string>(saved_tmpdir) : std::nullopt;
  const std::filesystem::path saved_cwd = std::filesystem::current_path();
  ::setenv("TMPDIR", tmp.path().c_str(), 1);
  std::filesystem::current_path(cwd.path());
  {
    ResultCache cache({.max_segment_bytes = 1});
    std::vector<ResultCacheKey> keys;
    for (std::size_t tasks : {50, 60, 70}) {
      auto spec = base_spec();
      spec.task_count = tasks;
      keys.push_back(ResultCacheKey::of(spec, EvalMath::exact));
      cache.insert(keys.back(), "payload-" + std::to_string(tasks));
    }
    EXPECT_EQ(entry_count(tmp.path()), 0u);
    EXPECT_EQ(entry_count(cwd.path()), 0u);
    EXPECT_EQ(*cache.lookup(keys[0]), "payload-50");
    EXPECT_EQ(*cache.lookup(keys[2]), "payload-70");
  }
  EXPECT_EQ(entry_count(tmp.path()), 0u);
  EXPECT_EQ(entry_count(cwd.path()), 0u);
  std::filesystem::current_path(saved_cwd);
  if (saved) {
    ::setenv("TMPDIR", saved->c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
}

TEST(ResultCacheTest, LineAlteredAfterIndexingIsAMissNeverOtherBytes) {
  const TempDir dir("fpsched_result_cache_altered_test");
  auto spec_a = base_spec();
  spec_a.task_count = 50;
  auto spec_b = base_spec();
  spec_b.task_count = 51;  // same canonical length as spec_a
  const ResultCacheKey a = ResultCacheKey::of(spec_a, EvalMath::exact);
  const ResultCacheKey b = ResultCacheKey::of(spec_b, EvalMath::exact);
  ASSERT_EQ(a.canonical.size(), b.canonical.size());
  ResultCache cache({.directory = dir.path().string()});
  cache.insert(a, "bytes-of-a");
  ASSERT_TRUE(cache.probe(a));

  // Rewrite a's spec in place into b's canonical text, after indexing.
  const std::filesystem::path segment = dir.path() / "segment-000001.ndjson";
  std::string text;
  {
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::size_t at = text.find("n=50");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 4, "n=51");
  {
    std::fstream out(segment, std::ios::in | std::ios::out | std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  EXPECT_FALSE(cache.probe(a));
  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  // A restart skips the line: its spec no longer hashes to its key.
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 0u);
  EXPECT_FALSE(reopened.lookup(a).has_value());
  EXPECT_FALSE(reopened.lookup(b).has_value());
}

TEST(ResultCacheTest, FailedAppendsKeepEveryEntryReadable) {
  // Every insert rotates (max_segment_bytes = 1), and the directory
  // vanishes after the first: later segments fail to open, so those
  // entries keep their lines in memory. Entries already on disk stay
  // readable through their open descriptors.
  auto dir = std::make_optional<TempDir>("fpsched_result_cache_failed_append_test");
  ResultCache cache({.directory = dir->path().string(), .max_segment_bytes = 1});
  std::vector<ResultCacheKey> keys;
  for (std::size_t tasks : {50, 60, 70, 80}) {
    auto spec = base_spec();
    spec.task_count = tasks;
    keys.push_back(ResultCacheKey::of(spec, EvalMath::exact));
    cache.insert(keys.back(), "payload-" + std::to_string(tasks));
    if (tasks == 50) dir.reset();  // removes the directory
  }
  EXPECT_EQ(cache.size(), 4u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string expected = "payload-" + std::to_string(50 + 10 * i);
    EXPECT_TRUE(cache.probe(keys[i])) << i;
    EXPECT_EQ(cache.lookup(keys[i]), expected) << i;
    EXPECT_EQ(cache.fetch(keys[i].hash), expected) << i;
  }
}

}  // namespace
}  // namespace fpsched::service
