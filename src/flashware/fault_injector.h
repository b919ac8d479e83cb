#ifndef FLASH_FLASHWARE_FAULT_INJECTOR_H_
#define FLASH_FLASHWARE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flashware/metrics.h"

namespace flash {

namespace obs {
class Tracer;
}

/// One scheduled worker failure: `worker` loses its entire in-memory state
/// when the global superstep counter reaches `superstep`. The engine detects
/// the failure at the superstep barrier and rebuilds the worker from the
/// last checkpoint plus its redo log before re-executing the superstep.
struct CrashEvent {
  uint64_t superstep = 0;
  int worker = 0;
};

/// Declarative description of the adversity a run must survive. The plan is
/// part of RuntimeOptions; a default-constructed plan (all rates zero, no
/// crashes, no checkpoint interval) disables every hook and leaves wire
/// bytes, messages, and modelled cost exactly as a fault-free run.
///
/// All randomness is a pure function of (seed, exchange epoch, src, dst,
/// fragment, attempt) — a counter-based PRNG, never a stateful stream — so a
/// plan replays bit-identically at any host thread count and any
/// interleaving of the concurrent superstep scheduler.
struct FaultPlan {
  uint64_t seed = 1;

  /// Per-fragment-transmission probabilities, each in [0, 1).
  double msg_drop_rate = 0;     // Transmission lost; sender retries.
  double msg_dup_rate = 0;      // Delivered twice; receiver dedups by seq.
  double msg_reorder_rate = 0;  // Arrival order scrambled; seq reassembly.

  /// Retransmissions attempted per fragment before the transport gives up
  /// and escalates to the checkpoint-recovery path.
  int max_retries = 8;

  /// Wire fragment size: channel payloads are split into fragments of this
  /// many bytes, the unit of loss/duplication/reordering.
  uint32_t fragment_bytes = 1024;

  /// Supersteps between state snapshots; 0 = automatic (1 when crashes are
  /// scheduled, otherwise checkpointing stays off).
  int checkpoint_interval = 0;

  std::vector<CrashEvent> worker_crash_schedule;

  bool HasMessageFaults() const {
    return msg_drop_rate > 0 || msg_dup_rate > 0 || msg_reorder_rate > 0;
  }
  bool HasCrashes() const { return !worker_crash_schedule.empty(); }
  int EffectiveCheckpointInterval() const {
    if (checkpoint_interval > 0) return checkpoint_interval;
    return HasCrashes() ? 1 : 0;
  }
  /// Whether any fault machinery must be armed for this plan.
  bool Active() const {
    return HasMessageFaults() || HasCrashes() || checkpoint_interval > 0;
  }

  /// InvalidArgument unless every rate is in [0, 1) and max_retries >= 0.
  Status Check() const;

  std::string ToString() const;
};

/// Deterministic adversary for the simulated cluster. Owns the run's
/// FaultStats; invoked only from single-threaded points of the superstep
/// protocol (MessageBus::Exchange after the phase barrier, primitive entry),
/// so it needs no synchronisation and its counters replay exactly.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  bool message_faults() const { return plan_.HasMessageFaults(); }

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Workers whose scheduled crash has come due by `superstep` (ascending,
  /// deduplicated). Each CrashEvent fires exactly once.
  std::vector<int> TakeCrashes(uint64_t superstep);

  /// Simulates one channel payload crossing the unreliable wire during
  /// exchange `epoch`: the payload is split into `fragment_bytes` fragments
  /// carrying sequence numbers; each transmission may be dropped (bounded
  /// retransmissions, then an escalated recovery resend), duplicated, or
  /// reordered; the receiver acknowledges, discards duplicate seqs, and
  /// reassembles in seq order into `delivered` — always byte-identical to
  /// `payload`, which is what makes algorithm results provably fault-
  /// independent. Adds every transmitted fragment (including retransmissions
  /// and wire duplicates) to *wire_bytes and every arrived fragment to
  /// *delivered_bytes; updates stats().
  void TransmitChannel(uint64_t epoch, int src, int dst,
                       const std::vector<uint8_t>& payload,
                       std::vector<uint8_t>& delivered, uint64_t* wire_bytes,
                       uint64_t* delivered_bytes);

  /// Uniform draw in [0, 1), a pure function of the arguments and the plan
  /// seed (exposed for the property tests).
  double Draw(uint64_t epoch, int src, int dst, uint64_t salt) const;

  /// Attaches the run's span tracer: every injected drop/duplicate/reorder,
  /// retry, and escalation then records an instant event (lane = src worker,
  /// shard = dst, args = fragment seq + attempt). Null keeps faults silent.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  FaultPlan plan_;
  FaultStats stats_;
  std::vector<uint8_t> crash_fired_;  // Parallel to worker_crash_schedule.
  // Per-transmit scratch, pooled across calls (TransmitChannel runs serially
  // inside Exchange): fragment arrival order and the receiver's seen set.
  std::vector<uint32_t> arrivals_scratch_;
  std::vector<uint8_t> seen_scratch_;
  size_t arrivals_high_water_ = 0;
  size_t seen_high_water_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_FAULT_INJECTOR_H_
