#ifndef FLASH_COMMON_THREAD_POOL_H_
#define FLASH_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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
///
/// The barrier spins before it parks. A BSP step forks and joins the pool
/// once per phase, and the gap between two phases is usually a few
/// microseconds of driver work, far less than a condition-variable sleep and
/// wake-up. So an idle thread (fork) and the caller (join) first poll an
/// atomic for up to kSpinBudget, with `pause` between polls and a
/// sched_yield every kPollsPerYield polls, so on an oversubscribed host a
/// spinner hands its core to a runnable thread; only then do they park on
/// a condition variable. Parking is Dekker-safe: a sleeper registers under
/// the mutex and then re-checks the condition, while the publisher changes
/// the condition and then checks for sleepers (both sequentially
/// consistent), so at least one side sees the other and no wake-up is lost.
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
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_.store(true);
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
  static constexpr std::chrono::microseconds kSpinBudget{50};
  // Yielding this often kept `ctest -j4` (four test processes, each with a
  // pool, on 4 cores) as fast as parking at once; every 64 polls was 16%
  // slower there, with the same sssp-road time.
  static constexpr int kPollsPerYield = 8;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
  }

  /// Polls done() for up to kSpinBudget of wall time; true once it holds.
  template <typename Pred>
  static bool SpinUntil(Pred&& done) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    while (true) {
      for (int i = 0; i < kPollsPerYield; ++i) {
        if (done()) return true;
        CpuRelax();
      }
      if (std::chrono::steady_clock::now() >= deadline) return done();
      std::this_thread::yield();
    }
  }

  /// Runs `task` once on every pool thread (including the caller) and waits.
  void RunOnAll(const std::function<void()>& task) {
    // Fork: publish the task, bump the generation, then wake any sleepers.
    task_ = &task;
    pending_.store(static_cast<int>(threads_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1);
    if (sleepers_.load() > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      wake_.notify_all();
    }
    task();  // Caller participates.
    // Join: spin, then park until the last worker reports.
    auto joined = [this] { return pending_.load() == 0; };
    if (SpinUntil(joined)) return;
    std::unique_lock<std::mutex> lock(mu_);
    caller_parked_.store(true);
    done_.wait(lock, joined);
    caller_parked_.store(false);
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    while (true) {
      auto ready = [&] {
        return generation_.load() != seen_generation || shutdown_.load();
      };
      if (!SpinUntil(ready)) {
        std::unique_lock<std::mutex> lock(mu_);
        sleepers_.fetch_add(1);
        wake_.wait(lock, ready);
        sleepers_.fetch_sub(1);
      }
      if (shutdown_.load()) return;
      seen_generation = generation_.load();
      (*task_)();
      // The task may not be touched after this decrement: the caller
      // returns (destroying it) once pending_ reaches zero.
      if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
        std::lock_guard<std::mutex> lock(mu_);
        done_.notify_all();
      }
    }
  }

  int num_threads_;

  // Written by the caller before the generation bump that publishes it.
  const std::function<void()>* task_ = nullptr;
  // The two polled words, each on its own cache line: idle threads poll
  // generation_, the caller polls pending_.
  alignas(64) std::atomic<uint64_t> generation_{0};
  alignas(64) std::atomic<int> pending_{0};
  alignas(64) std::atomic<int> sleepers_{0};  // Threads parked on wake_.
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutdown_{false};

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // Last, after everything the threads use.
  std::vector<std::thread> threads_;
};

}  // namespace flash

#endif  // FLASH_COMMON_THREAD_POOL_H_
