#ifndef FLASH_FLASHWARE_MESSAGE_BUS_H_
#define FLASH_FLASHWARE_MESSAGE_BUS_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"
#include "flashware/fault_injector.h"

namespace flash {

namespace obs {
class Tracer;
}

/// All-to-all byte channels between the m simulated workers — the stand-in
/// for the MPI transport of the original system. Every inter-worker update
/// is serialised into a channel by the sender and deserialised by the
/// receiver, so byte/message counts are exactly what a wire would carry.
///
/// Usage per BSP exchange phase:
///   writers fill Channel(src, dst);  // src-exclusive, src != dst
///   Exchange();                      // flips buffers, updates counters
///   readers drain Incoming(dst, src).
///
/// Different senders may fill their channels concurrently (the parallel
/// superstep scheduler does): a channel and its message counter are touched
/// only by the owning src, and Exchange() runs after the phase barrier, so
/// no synchronisation is needed beyond that barrier.
class MessageBus {
 public:
  explicit MessageBus(int num_workers)
      : num_workers_(num_workers),
        outgoing_(static_cast<size_t>(num_workers) * num_workers),
        incoming_(static_cast<size_t>(num_workers) * num_workers),
        channel_messages_(static_cast<size_t>(num_workers) * num_workers, 0),
        channel_messages_total_(static_cast<size_t>(num_workers) * num_workers,
                                0) {
    FLASH_CHECK_GE(num_workers, 1);
  }

  int num_workers() const { return num_workers_; }

  /// Outgoing buffer from worker `src` to worker `dst`. Only `src` may write
  /// to it during a phase (single-writer channels, like MPI point-to-point).
  BufferWriter& Channel(int src, int dst) {
    FLASH_DCHECK(src != dst);
    return outgoing_[Index(src, dst)];
  }

  /// Counts `n` logical messages (vertex updates) on the src→dst channel
  /// for the current phase. Counters are per channel — each is written only
  /// by the channel's single sender, so concurrent workers never contend —
  /// and Exchange() folds them into the phase totals.
  void CountMessages(int src, int dst, uint64_t n = 1) {
    channel_messages_[Index(src, dst)] += n;
  }

  /// Attaches the run's fault injector. With message faults configured,
  /// every Exchange() routes channel payloads through the simulated
  /// unreliable wire (fragment drops/duplicates/reordering with seq/ack
  /// recovery); wire-byte counters then include retransmissions. A null
  /// injector (or a plan without message faults) keeps the exact fault-free
  /// fast path.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Attaches the run's span tracer. Every Exchange() then records one
  /// exchange span plus a span per non-empty src→dst channel (lane = src,
  /// dst/byte/msg attributes). Null keeps exchanges unobserved.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Ends the exchange phase: outgoing buffers become readable, counters are
  /// updated. Returns total bytes moved in this phase.
  uint64_t Exchange();

  /// Bytes readable by `dst` from `src` after Exchange().
  const std::vector<uint8_t>& Incoming(int dst, int src) const {
    return incoming_[Index(src, dst)];
  }

  /// Busiest worker's max(sent, received) bytes in the last Exchange.
  uint64_t LastMaxWorkerBytes() const { return last_max_worker_bytes_; }
  uint64_t LastTotalBytes() const { return last_total_bytes_; }
  uint64_t LastMessages() const { return last_messages_; }

  /// Bills the last Exchange to `sample`: its bytes, the busiest worker's
  /// bytes and its messages.
  void AddLastExchange(StepSample& sample) const {
    sample.bytes_total += last_total_bytes_;
    sample.bytes_max += last_max_worker_bytes_;
    sample.msgs_total += last_messages_;
  }

  uint64_t TotalBytes() const { return total_bytes_; }
  uint64_t TotalMessages() const { return total_messages_; }

  /// Cumulative messages ever exchanged on the src→dst channel (folded at
  /// each Exchange, exact even under message faults — the unreliable wire
  /// reassembles payloads byte-identically, so logical message counts are
  /// conserved). The async engine's termination detection compares these
  /// sender-side totals against receiver-side received/applied counts:
  /// global quiescence holds iff they agree on every channel.
  uint64_t ChannelMessagesTotal(int src, int dst) const {
    return channel_messages_total_[Index(src, dst)];
  }

  /// Capacity currently retained across every channel buffer (outgoing and
  /// incoming sides). Exchange() applies the pooled high-water-mark trim
  /// (RecyclePooled), so this decays within a few quiet supersteps after a
  /// traffic spike instead of staying at the all-time peak.
  uint64_t PoolCapacityBytes() const {
    uint64_t capacity = 0;
    for (const BufferWriter& out : outgoing_) capacity += out.capacity();
    for (const std::vector<uint8_t>& in : incoming_) capacity += in.capacity();
    return capacity;
  }

  /// Largest PoolCapacityBytes() observed at the end of any Exchange().
  uint64_t PoolPeakBytes() const { return pool_peak_bytes_; }

 private:
  size_t Index(int src, int dst) const {
    FLASH_DCHECK(src >= 0 && src < num_workers_);
    FLASH_DCHECK(dst >= 0 && dst < num_workers_);
    return static_cast<size_t>(src) * num_workers_ + dst;
  }

  int num_workers_;
  std::vector<BufferWriter> outgoing_;
  std::vector<std::vector<uint8_t>> incoming_;
  std::vector<uint64_t> channel_messages_;
  std::vector<uint64_t> channel_messages_total_;
  uint64_t last_max_worker_bytes_ = 0;
  uint64_t last_total_bytes_ = 0;
  uint64_t last_messages_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t total_messages_ = 0;
  std::vector<uint64_t> sent_scratch_;
  std::vector<uint64_t> recv_scratch_;
  // Decayed per-channel usage marks driving the capacity trim; the swap in
  // Exchange() migrates the larger allocation to the outgoing side, so
  // trimming outgoing buffers bounds both directions over time.
  std::vector<size_t> channel_high_water_;
  uint64_t pool_peak_bytes_ = 0;
  FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  uint64_t exchange_epoch_ = 0;  // Keys the counter-based fault PRNG.
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_MESSAGE_BUS_H_
