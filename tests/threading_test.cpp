// Tests for the thread pool, its slots, and nested task groups.
#include "support/threading.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/result_sink.hpp"
#include "support/error.hpp"

namespace fpsched {
namespace {

/// Runs `body` on a separate thread and fails WITHOUT hanging the suite
/// when it does not finish within `seconds` — the deadlock guard for the
/// nested-scheduling tests. A deadlocked body can never be joined (an
/// std::async future's destructor would just block on it), so on timeout
/// this reports and hard-exits the binary: a loud red test beats hanging
/// to the CI job timeout with no diagnostic.
void expect_finishes_within(int seconds, const std::function<void()>& body) {
  std::promise<void> promise;
  std::future<void> done = promise.get_future();
  std::thread worker(
      [&body](std::promise<void> result) {
        try {
          body();
          result.set_value();
        } catch (...) {
          result.set_exception(std::current_exception());
        }
      },
      std::move(promise));
  if (done.wait_for(std::chrono::seconds(seconds)) != std::future_status::ready) {
    std::cerr << "FATAL: timed out after " << seconds
              << "s — nested pool scheduling deadlocked?\n";
    std::_Exit(3);
  }
  worker.join();
  done.get();  // propagate assertions/exceptions
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, RejectsZeroWorkers) { EXPECT_THROW(ThreadPool(0), InvalidArgument); }

TEST(TaskGroup, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  TaskGroup group(pool);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    group.run([&hits, i] { hits[i].fetch_add(1); });
  }
  group.wait();
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskGroup, WaitWithoutTasksReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.wait();
}

TEST(TaskGroup, RethrowsTheFirstTaskException) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> completed{0};
  for (int i = 0; i < 32; ++i) {
    group.run([&completed, i] {
      if (i == 7) throw std::runtime_error("task 7");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The pool survives: plain submits still work.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(TaskGroup, NestedGroupsOnOneWorkerDoNotDeadlock) {
  // The hard case: a pool with a SINGLE worker, where an outer task joins
  // an inner group. Without the cooperative wait (waiters executing their
  // own group's queued tasks) this deadlocks instantly — the one worker
  // is parked inside the outer task.
  expect_finishes_within(30, [] {
    ThreadPool pool(1);
    std::atomic<int> inner_total{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
      outer.run([&pool, &inner_total] {
        TaskGroup inner(pool);
        for (int j = 0; j < 16; ++j) inner.run([&inner_total] { inner_total.fetch_add(1); });
        inner.wait();
      });
    }
    outer.wait();
    EXPECT_EQ(inner_total.load(), 8 * 16);
  });
}

TEST(TaskGroup, ThreeLevelNestingUnderContention) {
  // Three levels of nesting (one deeper than the engine's scenario ->
  // budget sweep), more groups than workers at every level, joined from
  // inside pool tasks throughout.
  expect_finishes_within(60, [] {
    ThreadPool pool(3);
    std::atomic<int> leaves{0};
    TaskGroup scenarios(pool);
    for (int s = 0; s < 6; ++s) {
      scenarios.run([&pool, &leaves] {
        TaskGroup budgets(pool);
        for (int b = 0; b < 5; ++b) {
          budgets.run([&pool, &leaves] {
            TaskGroup blocks(pool);
            for (int k = 0; k < 4; ++k) blocks.run([&leaves] { leaves.fetch_add(1); });
            blocks.wait();
          });
        }
        budgets.wait();
      });
    }
    scenarios.wait();
    EXPECT_EQ(leaves.load(), 6 * 5 * 4);
  });
}

TEST(TaskGroup, MixesWithPlainSubmits) {
  ThreadPool pool(2);
  std::atomic<int> plain{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(pool.submit([&plain] { plain.fetch_add(1); }));
  TaskGroup group(pool);
  std::atomic<int> grouped{0};
  for (int i = 0; i < 16; ++i) group.run([&grouped] { grouped.fetch_add(1); });
  group.wait();
  for (auto& f : futures) f.get();
  EXPECT_EQ(plain.load(), 16);
  EXPECT_EQ(grouped.load(), 16);
}

TEST(ThreadPool, SlotIdentifiesTheCallingThread) {
  // Workers see their own distinct slot in [0, size()); the owner and any
  // other thread see size(), and a worker is not a slot of another pool.
  ThreadPool pool(3);
  ThreadPool other(2);
  EXPECT_EQ(pool.slot(), 3u);
  std::atomic<int> arrived{0};
  std::vector<std::size_t> seen(3);
  std::vector<std::size_t> foreign(3);
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < 3; ++i) {
    // Every task waits until all three run at once, so each lands on its
    // own worker.
    done.push_back(pool.submit([&, i] {
      arrived.fetch_add(1);
      while (arrived.load() < 3) std::this_thread::yield();
      seen[i] = pool.slot();
      foreign[i] = other.slot();
    }));
  }
  for (auto& f : done) f.get();
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(foreign, (std::vector<std::size_t>{2, 2, 2}));
  std::size_t from_thread = 0;
  std::thread([&] { from_thread = pool.slot(); }).join();
  EXPECT_EQ(from_thread, 3u);
}

// --- Nested scheduling through the engine ------------------------------

/// NDJSON serialization of a grid run under the given engine options —
/// the byte stream the nested and serial paths must agree on.
std::string grid_ndjson(const engine::ScenarioGrid& grid, const engine::EngineOptions& options) {
  const engine::ExperimentEngine eng(options);
  std::string out;
  for (const engine::ScenarioResult& result : eng.run(grid)) {
    out += engine::to_json({"stress", "panel", result});
    out += '\n';
  }
  return out;
}

engine::ScenarioGrid nested_stress_grid() {
  engine::ScenarioGrid grid;
  grid.workflows = {WorkflowKind::cybershake};
  grid.sizes = {40};
  grid.lambdas = {1e-3};
  grid.stride = 4;
  grid.policies = {
      engine::ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight}),
      engine::ScenarioPolicy::best_lin(CkptStrategy::by_cost),
      engine::ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::never}),
  };
  return grid;
}

TEST(NestedScheduling, RecordsBitIdenticalToSerialRun) {
  // 3 scenarios on an 8-wide engine: idle workers steal budget tasks from
  // in-flight sweeps. The records must be the same bytes as the fully
  // serial run.
  expect_finishes_within(120, [] {
    const engine::ScenarioGrid grid = nested_stress_grid();
    const std::string serial = grid_ndjson(grid, {.threads = 1});
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 2}));
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 8}));
  });
}

TEST(NestedScheduling, SingleScenarioManyWorkers) {
  // One scenario, many workers — all parallelism must come from stolen
  // budget tasks, and the pool must wind down cleanly with most workers
  // never seeing a scenario task.
  expect_finishes_within(120, [] {
    engine::ScenarioGrid grid = nested_stress_grid();
    grid.policies = {
        engine::ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight})};
    grid.stride = 1;  // full 1..n-1 budget fan-out
    const std::string serial = grid_ndjson(grid, {.threads = 1});
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 8}));
  });
}

TEST(NestedScheduling, AbsurdThreadCountsAreClampedNotFatal) {
  // Thread counts arrive from CLI flags and HTTP query parameters; a
  // threads=10^9 request must degrade to the engine's hard worker
  // ceiling (and the same bytes), not attempt a billion OS threads.
  expect_finishes_within(120, [] {
    engine::ScenarioGrid grid = nested_stress_grid();
    grid.policies.resize(1);
    const std::string serial = grid_ndjson(grid, {.threads = 1});
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 1'000'000'000}));
    const engine::ExperimentEngine wide({.threads = 1'000'000'000});
    EXPECT_LE(wide.thread_count(), kMaxPoolThreads);
    ASSERT_NE(wide.pool(), nullptr);
    EXPECT_EQ(wide.pool()->size(), wide.thread_count() - 1);
  });
}

TEST(NestedScheduling, SerialEngineHasNoPool) {
  // threads = 1 means serial: no pool, so no thread is ever spawned.
  const engine::ExperimentEngine serial({.threads = 1});
  EXPECT_EQ(serial.thread_count(), 1u);
  EXPECT_EQ(serial.pool(), nullptr);
  const engine::ExperimentEngine two({.threads = 2});
  ASSERT_NE(two.pool(), nullptr);
  EXPECT_EQ(two.pool()->size(), 1u);
}

}  // namespace
}  // namespace fpsched
