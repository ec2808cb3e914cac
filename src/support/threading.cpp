#include "support/threading.hpp"

#include <exception>
#include <utility>

#include "support/error.hpp"

namespace fpsched {

namespace {

/// The pool the current thread works for (null off any pool) and its
/// slot there; set once by worker_loop.
thread_local const ThreadPool* current_pool = nullptr;
thread_local std::size_t current_slot = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  ensure(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // A failed spawn (system thread limit) must not leave joinable
    // threads behind — their destructor would terminate the process.
    {
      const LockGuard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::slot() const {
  return current_pool == this ? current_slot : size();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const LockGuard lock(mutex_);
    ensure(!stopping_, "submit on a stopping pool");
    queue_.push_back({std::move(packaged), nullptr});
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::enqueue_ticket(std::shared_ptr<GroupState> group) {
  {
    const LockGuard lock(mutex_);
    ensure(!stopping_, "TaskGroup::run on a stopping pool");
    queue_.push_back({{}, std::move(group)});
  }
  cv_.notify_one();
}

bool ThreadPool::GroupState::run_one() {
  std::function<void()> task;
  {
    const LockGuard lock(mutex);
    if (tasks.empty()) return false;
    task = std::move(tasks.front());
    tasks.pop_front();
  }
  try {
    task();
  } catch (...) {
    const LockGuard lock(mutex);
    if (!error) error = std::current_exception();
  }
  finish_one();
  return true;
}

void ThreadPool::GroupState::finish_one() {
  bool last = false;
  {
    const LockGuard lock(mutex);
    last = --outstanding == 0;
  }
  if (last) done.notify_all();
}

void ThreadPool::worker_loop(std::size_t slot) {
  current_pool = this;
  current_slot = slot;
  for (;;) {
    Item item;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock, mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (item.group) {
      // Stale tickets (the waiter already ran the task itself) are
      // dropped by run_one returning false.
      item.group->run_one();
    } else {
      item.task();  // exceptions are captured in the packaged_task's future
    }
  }
}

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(&pool), state_(std::make_shared<ThreadPool::GroupState>()) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destruction must not throw; call wait() explicitly to observe task
    // exceptions.
  }
}

void TaskGroup::run(std::function<void()> task) {
  {
    const LockGuard lock(state_->mutex);
    state_->tasks.push_back(std::move(task));
    ++state_->outstanding;
  }
  pool_->enqueue_ticket(state_);
}

void TaskGroup::wait() {
  // Help first: drain this group's queued tasks on the calling thread.
  // Only when every remaining task is running on some other thread does
  // the wait actually block — which is what makes joining from inside a
  // pool worker safe (the worker never parks while its own work is
  // claimable).
  while (state_->run_one()) {
  }
  {
    UniqueLock lock(state_->mutex);
    while (state_->outstanding != 0) state_->done.wait(lock, state_->mutex);
    if (state_->error) {
      std::exception_ptr error = std::exchange(state_->error, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

}  // namespace fpsched
