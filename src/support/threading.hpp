// Shared-memory parallelism: one fixed thread pool and nested task groups.
//
// Every parallel loop in fpsched — the engine's scenarios, the heuristics'
// exhaustive N-sweeps, the greedy and exact searches, the Monte-Carlo
// trials — is a TaskGroup on a caller-supplied ThreadPool; a null pool
// means the caller runs the loop serially on its own thread. Tasks write
// only to disjoint slots, so the hot path needs no locking and the results
// do not depend on which thread ran which task.
//
// TaskGroup supports *nested* fork/join: a task already running on a pool
// worker can fan out subtasks onto the same pool and join them without
// deadlock, because wait() helps — it executes the group's own queued
// tasks on the calling thread and only blocks when every remaining task
// of the group is being executed by another thread. Idle pool workers pull
// queued group tasks exactly like plain submitted tasks, which is what
// lets an idle worker steal budget-sweep tasks from an in-flight scenario.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "support/sync.hpp"

namespace fpsched {

/// Hard ceiling on real OS threads a single component should spawn from a
/// user-supplied count (CLI flag, HTTP query parameter): beyond a few
/// hundred workers there is no hardware left to fill, only scheduler
/// pressure — and an unbounded `threads=10^9` request must degrade to
/// "as wide as is useful", not exhaust the host's thread limit. Applied
/// by the experiment engine's width resolution.
inline constexpr std::size_t kMaxPoolThreads = 256;

/// A fixed-size pool of worker threads consuming a FIFO of tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The calling thread's slot in this pool: 0..size()-1 on the pool's
  /// own workers, size() on any other thread (the owner included). Lets
  /// a TaskGroup's tasks index per-thread state in a vector of size()+1
  /// entries: a thread runs one task of a group at a time, so each entry
  /// has exactly one user.
  std::size_t slot() const;

  /// Enqueues a task; the returned future rethrows any exception the task
  /// raised.
  std::future<void> submit(std::function<void()> task);

 private:
  friend class TaskGroup;

  /// Shared state of one TaskGroup. The pool queue holds shared_ptr
  /// tickets to it: a ticket popped after the group's waiter already
  /// executed the task itself is simply stale and dropped, so tickets can
  /// safely outlive the TaskGroup object.
  struct GroupState {
    Mutex mutex;
    CondVar done;
    std::deque<std::function<void()>> tasks GUARDED_BY(mutex);  // submitted, not yet claimed
    std::size_t outstanding GUARDED_BY(mutex) = 0;              // queued + currently running
    std::exception_ptr error GUARDED_BY(mutex);                 // first task exception

    /// Claims and runs one queued task (helper for workers and waiters).
    /// Returns false when no task was queued. Takes the group mutex
    /// internally (the task itself runs unlocked).
    bool run_one() EXCLUDES(mutex);
    void finish_one() EXCLUDES(mutex);
  };

  /// One queue entry: a plain submitted task or a group ticket.
  struct Item {
    std::packaged_task<void()> task;
    std::shared_ptr<GroupState> group;
  };

  void enqueue_ticket(std::shared_ptr<GroupState> group);
  void worker_loop(std::size_t slot);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<Item> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
};

/// A batch of subtasks executed on a shared ThreadPool and joined with a
/// cooperative wait. Single owner: only the constructing thread may call
/// run()/wait(). Tasks must not call run() on their own group, but they
/// may create *their own* TaskGroups on the same pool — wait() helps with
/// the calling group's tasks only, so nesting (scenario -> budget sweep)
/// is deadlock-free by induction: a waiter can always execute its group's
/// queued tasks itself, and the tasks it waits on only ever wait on
/// deeper groups.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool);
  /// Joins outstanding tasks (exceptions are swallowed; call wait() to
  /// observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues one task onto the shared pool.
  void run(std::function<void()> task);

  /// Runs queued tasks of this group on the calling thread until every
  /// task completed (blocking only while the leftovers run on other
  /// threads). Rethrows the first exception any task raised.
  void wait();

 private:
  ThreadPool* pool_;
  std::shared_ptr<ThreadPool::GroupState> state_;
};

}  // namespace fpsched
