#ifndef FLASH_COMMON_THREAD_POOL_H_
#define FLASH_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace flash {

/// Threads for a pool running `tasks` concurrent tasks: `cap` when positive
/// (RuntimeOptions::host_threads), else the host's cores; never more than
/// `tasks`, never fewer than one.
inline int HostThreadCount(int tasks, int cap) {
  if (cap <= 0) cap = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(tasks, cap));
}

/// A small fork-join pool with one work-stealing entry point,
/// ParallelForWorkers. One pool drives the whole simulated cluster: every
/// (worker, shard) partition of a BSP phase is a task, so all of the paper's
/// m processes genuinely overlap on the host (the "c threads per process"
/// are folded into the same pool; the two threads notionally reserved for
/// MPI send/recv compute instead, since the transport is in-memory).
///
/// With num_threads == 1 every task runs inline on the caller thread in
/// index order: the sequential baseline (RuntimeOptions::host_threads = 1)
/// and the default on single-core hosts.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) : num_threads_(num_threads) {
    FLASH_CHECK_GE(num_threads, 1);
    for (int i = 0; i + 1 < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) once for every i in [0, count) with dynamic work stealing
  /// (one index at a time off an atomic cursor). This is the superstep
  /// scheduler's entry point: indices are whole (worker, shard) partitions
  /// whose sizes are skewed by the graph partition, so tasks must
  /// load-balance rather than be split statically. Inline and in index
  /// order when the pool has a single thread.
  template <typename Fn>
  void ParallelForWorkers(int count, Fn&& fn) {
    if (count <= 0) return;
    if (num_threads_ == 1 || count == 1) {
      for (int i = 0; i < count; ++i) fn(i);
      return;
    }
    std::atomic<int> cursor{0};
    RunOnAll([&] {
      while (true) {
        int i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        fn(i);
      }
    });
  }

 private:
  /// Runs `task` once on every pool thread (including the caller) and waits.
  void RunOnAll(const std::function<void()>& task) {
    if (num_threads_ == 1) {
      task();
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ = &task;
      pending_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    wake_.notify_all();
    task();  // Caller participates.
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return pending_ == 0; });
    task_ = nullptr;
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    while (true) {
      const std::function<void()>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] {
          return shutdown_ || (task_ != nullptr && generation_ != seen_generation);
        });
        if (shutdown_) return;
        seen_generation = generation_;
        task = task_;
      }
      (*task)();
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--pending_ == 0) done_.notify_all();
      }
    }
  }

  int num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void()>* task_ = nullptr;
  int pending_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace flash

#endif  // FLASH_COMMON_THREAD_POOL_H_
