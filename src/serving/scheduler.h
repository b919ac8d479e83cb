#ifndef FLASH_SERVING_SCHEDULER_H_
#define FLASH_SERVING_SCHEDULER_H_

#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "common/status.h"
#include "serving/query.h"

/// The request scheduler: admission control + batch cutting.
///
/// Pending queries wait in one of two FIFOs. bfs, k-hop and landmark
/// queries share the *traversal* queue: one multi-source BFS pass answers
/// all three kinds at once. PPR waits in its own queue and runs alone. A
/// batch is cut when either
///   (a) a queue is full — the traversal queue when its bfs / k-hop
///       queries need `batch_window` distinct frontier bits (one bit per
///       distinct source, at most 64; landmark queries take none), the PPR
///       queue as soon as it holds a query; or
///   (b) the modelled clock reaches the *forced-cut time* of a queue's
///       oldest query: enqueue + min(max_batch_wait, remaining deadline
///       budget after the queue's estimated service time). Waiting past
///       that point could only add batch-mates at the price of blowing
///       the wait cap or the oldest query's deadline.
/// A cut takes the longest FIFO prefix whose sources fit the frontier
/// bits. Admission is a single bound over both queues: at max_queue
/// pending, new arrivals are shed with Status::OutOfRange — the caller
/// always hears about it, nothing is dropped silently.
///
/// The scheduler is driven entirely by the modelled clock its caller
/// passes in; it never reads wall time, which is what makes an identical
/// query log replay identically (docs/SERVING.md, determinism contract).
namespace flash::serving {

struct SchedulerOptions {
  /// Coalescing width cap W: the most distinct frontier bits (bfs / k-hop
  /// sources) one traversal pass carries, further capped at 64. Landmark
  /// queries take no bit; a PPR batch is always one query.
  int batch_window = 64;
  /// Admission bound: total pending queries across queues. At the bound,
  /// Enqueue sheds with Status::OutOfRange.
  size_t max_queue = 4096;
  /// Longest a query may wait queued before its batch is cut, in modelled
  /// seconds, deadline or not.
  double max_batch_wait_s = 0.005;
};

/// The scheduler's queues: which engine pass a query can share.
enum class QueueClass : uint8_t { kTraversal = 0, kPpr = 1 };

inline constexpr int kNumQueues = 2;

QueueClass QueueOf(QueryKind kind);
const char* QueueClassName(QueueClass queue);

/// A query waiting in (or cut from) the scheduler.
struct PendingQuery {
  Query query;
  uint64_t id = 0;
  double enqueue_s = 0;
};

/// One cut batch: queries of one queue that will share an engine pass.
struct Batch {
  QueueClass queue = QueueClass::kTraversal;
  std::vector<PendingQuery> queries;
  double cut_s = 0;  // Modelled time the scheduler released the batch.
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);

  /// Admits `q` at modelled time `now_s`, or sheds it (OutOfRange) when
  /// the queue bound is hit. Admitted queries keep FIFO order per queue.
  Status Enqueue(const PendingQuery& q);

  /// Feeds the per-queue service-time estimate (EWMA maintained by the
  /// server from executed batches) used in forced-cut deadline math.
  void SetServiceEstimate(QueueClass queue, double seconds);

  size_t PendingCount() const { return pending_; }
  bool HasPending() const { return pending_ != 0; }

  /// Earliest modelled time at which some queued query forces a cut;
  /// +infinity when nothing is pending. Monotone in queue contents —
  /// enqueues can only move it earlier.
  double NextForcedCutTime() const;

  /// Cuts and returns the next batch due at `now_s`: a full queue first
  /// (traversal before PPR — deterministic), else the queue with the
  /// earliest forced-cut time <= now_s. Empty batch = nothing due. Call
  /// in a loop; one call cuts at most one batch.
  Batch CutDue(double now_s);

 private:
  double ForcedCutTime(int queue) const;
  bool Full(int queue) const;

  SchedulerOptions options_;
  size_t max_bits_;  // min(batch_window, 64) frontier bits per pass.
  std::array<std::deque<PendingQuery>, kNumQueues> queues_;
  std::array<double, kNumQueues> service_estimate_{};
  /// Queued bfs / k-hop queries per distinct source; its size is the
  /// frontier bits the traversal queue needs.
  std::map<VertexId, size_t> source_refs_;
  size_t pending_ = 0;
};

}  // namespace flash::serving

#endif  // FLASH_SERVING_SCHEDULER_H_
