// A small fixed-size worker pool: the sharded engine's shard fan-out, the
// service's request workers, and the policy encoder's per-user passes.
//
// Each needs exactly one primitive: "run these N closures, wait for all of
// them". Tasks are plain std::function<void()>; errors propagate
// by capture (the library is exception-free, matching the Status idiom).
// A pool constructed with zero workers runs every task inline on the
// submitting thread, which keeps single-threaded configurations
// deterministic and easy to debug.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace peb {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means "inline mode" (no workers).
  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Runs it inline when the pool has no workers.
  void Submit(std::function<void()> task) EXCLUDES(mu_) {
    if (workers_.empty()) {
      task();
      return;
    }
    {
      MutexLock lock(&mu_);
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  /// Runs every task and returns once all have completed. The calling
  /// thread blocks (or, with no workers, executes the tasks itself).
  void RunAll(std::vector<std::function<void()>> tasks) EXCLUDES(mu_) {
    if (tasks.empty()) return;
    if (workers_.empty()) {
      for (auto& t : tasks) t();
      return;
    }
    Latch latch(tasks.size());
    for (auto& t : tasks) {
      Submit([&latch, task = std::move(t)] {
        task();
        latch.CountDown();
      });
    }
    latch.Wait();
  }

 private:
  /// Minimal count-down latch (std::latch is C++20 but <latch> is spotty
  /// on older toolchains; this is the whole of what we need).
  class Latch {
   public:
    explicit Latch(size_t count) : remaining_(count) {}
    void CountDown() EXCLUDES(mu_) {
      MutexLock lock(&mu_);
      if (--remaining_ == 0) done_.notify_all();
    }
    void Wait() EXCLUDES(mu_) {
      MutexLock lock(&mu_);
      done_.wait(mu_, [this]() {
        mu_.AssertHeld();  // The cv re-locks before testing the predicate.
        return remaining_ == 0;
      });
    }

   private:
    Mutex mu_;
    std::condition_variable_any done_;
    size_t remaining_ GUARDED_BY(mu_);
  };

  void WorkerLoop() EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        wake_.wait(mu_, [this]() {
          mu_.AssertHeld();
          return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) return;  // stopping_ and drained.
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mu_;
  std::condition_variable_any wake_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace peb
