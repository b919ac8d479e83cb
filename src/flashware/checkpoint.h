#ifndef FLASH_FLASHWARE_CHECKPOINT_H_
#define FLASH_FLASHWARE_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/status.h"
#include "graph/graph.h"

namespace flash {

struct FaultStats;

namespace obs {
class Tracer;
}

/// Superstep-granular checkpointing for the simulated cluster (paper-style
/// synchronous recovery: snapshot at a superstep barrier, redo-log every
/// later state change, rebuild a crashed worker as snapshot + log replay).
///
/// All persisted blobs are *sealed frames*: payload followed by a 16-byte
/// trailer (magic + FNV-1a-64 checksum). Restores verify the trailer before
/// touching the payload, so corruption and truncation are rejected with a
/// Status instead of crashing the decoder — the property the checkpoint
/// round-trip tests assert.

/// Appends the frame trailer (magic + checksum of the current content).
void SealCheckpointFrame(std::vector<uint8_t>& bytes);

/// Verifies a sealed frame. OK iff the trailer is present, carries the
/// magic, and the checksum matches the payload.
Status VerifyCheckpointFrame(const std::vector<uint8_t>& bytes);

/// Payload length of a sealed frame (precondition: VerifyCheckpointFrame ok).
size_t CheckpointPayloadSize(const std::vector<uint8_t>& bytes);

/// Frontier section codec (worker id-lists at the checkpointed superstep);
/// the encoded blob is sealed, the decoder verifies before parsing.
std::vector<uint8_t> EncodeFrontierLists(
    uint64_t superstep, const std::vector<std::vector<VertexId>>& lists);
Status DecodeFrontierLists(const std::vector<uint8_t>& sealed, uint64_t* superstep,
                           std::vector<std::vector<VertexId>>* lists);

/// Owns the latest snapshot (one sealed blob per worker + the frontier) and
/// the per-worker redo logs, with the interval policy and byte accounting.
/// The engine encodes/decodes worker state (it knows VData); this class
/// handles retention, sealing, and bookkeeping.
class CheckpointManager {
 public:
  CheckpointManager(int num_workers, int interval);

  int interval() const { return interval_; }
  bool has_snapshot() const { return has_snapshot_; }
  uint64_t snapshot_step() const { return snapshot_step_; }

  /// Whether a snapshot is due at `superstep` under the interval policy.
  bool Due(uint64_t superstep) const;

  /// Installs a new snapshot: seals every blob, accounts the written bytes
  /// into `stats`, and clears the now-superseded redo logs.
  void StoreSnapshot(uint64_t superstep,
                     std::vector<std::vector<uint8_t>> worker_state,
                     std::vector<uint8_t> frontier, FaultStats& stats);

  /// Sealed state blob of worker `w` (precondition: has_snapshot()).
  const std::vector<uint8_t>& worker_blob(int w) const {
    FLASH_CHECK(has_snapshot_);
    return worker_state_[w];
  }
  const std::vector<uint8_t>& frontier_blob() const {
    FLASH_CHECK(has_snapshot_);
    return frontier_;
  }

  /// Worker `w`'s redo log: the byte-exact state mutations applied to its
  /// store since the last snapshot, in application order, as a sequence of
  /// WireBatch frames (serialize.h) — the worker's commit frames under an
  /// all-fields mask and its received mirror-sync frames verbatim — so
  /// replaying it over the snapshot image reproduces the store
  /// bit-identically. Single writer per barrier; cleared by StoreSnapshot.
  BufferWriter& log(int w) { return logs_[w]; }
  const BufferWriter& log(int w) const { return logs_[w]; }

  /// Attaches the run's span tracer: StoreSnapshot then records a
  /// "ckpt:seal" span (args = sealed bytes, workers) on the host lane.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  int num_workers_;
  int interval_;
  bool has_snapshot_ = false;
  uint64_t snapshot_step_ = 0;
  std::vector<std::vector<uint8_t>> worker_state_;
  std::vector<uint8_t> frontier_;
  std::vector<BufferWriter> logs_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_CHECKPOINT_H_
