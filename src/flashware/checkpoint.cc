#include "flashware/checkpoint.h"

#include "common/hash.h"
#include "flashware/metrics.h"
#include "obs/tracer.h"

namespace flash {

namespace {

// Trailer: 8-byte magic, then FNV-1a-64 of the payload, little-endian.
constexpr uint64_t kFrameMagic = 0x464C534843'4B5054ull;  // "FLSHCKPT"-ish.
constexpr size_t kTrailerBytes = 16;

void PutU64(std::vector<uint8_t>& bytes, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(p[i]) << (8 * i);
  return value;
}

}  // namespace

void SealCheckpointFrame(std::vector<uint8_t>& bytes) {
  uint64_t checksum = Fnv1a64(bytes.data(), bytes.size());
  PutU64(bytes, kFrameMagic);
  PutU64(bytes, checksum);
}

Status VerifyCheckpointFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kTrailerBytes) {
    return Status::IOError("checkpoint frame truncated: no trailer");
  }
  const size_t payload = bytes.size() - kTrailerBytes;
  if (GetU64(bytes.data() + payload) != kFrameMagic) {
    return Status::IOError("checkpoint frame magic mismatch");
  }
  if (GetU64(bytes.data() + payload + 8) != Fnv1a64(bytes.data(), payload)) {
    return Status::IOError("checkpoint frame checksum mismatch");
  }
  return Status::OK();
}

size_t CheckpointPayloadSize(const std::vector<uint8_t>& bytes) {
  FLASH_CHECK_GE(bytes.size(), kTrailerBytes);
  return bytes.size() - kTrailerBytes;
}

std::vector<uint8_t> EncodeFrontierLists(
    uint64_t superstep, const std::vector<std::vector<VertexId>>& lists) {
  BufferWriter out;
  out.WriteVarint(superstep);
  out.WriteVarint(lists.size());
  for (const auto& list : lists) {
    out.WriteVarint(list.size());
    for (VertexId v : list) out.WriteVarint(v);
  }
  std::vector<uint8_t> bytes = out.Release();
  SealCheckpointFrame(bytes);
  return bytes;
}

Status DecodeFrontierLists(const std::vector<uint8_t>& sealed,
                           uint64_t* superstep,
                           std::vector<std::vector<VertexId>>* lists) {
  FLASH_RETURN_NOT_OK(VerifyCheckpointFrame(sealed));
  BufferReader reader(sealed.data(), CheckpointPayloadSize(sealed));
  *superstep = reader.ReadVarint();
  size_t num_workers = reader.ReadVarint();
  lists->assign(num_workers, {});
  for (size_t w = 0; w < num_workers; ++w) {
    size_t n = reader.ReadVarint();
    (*lists)[w].reserve(n);
    for (size_t i = 0; i < n; ++i) {
      (*lists)[w].push_back(static_cast<VertexId>(reader.ReadVarint()));
    }
  }
  if (!reader.AtEnd()) {
    return Status::IOError("frontier blob has trailing bytes");
  }
  return Status::OK();
}

CheckpointManager::CheckpointManager(int num_workers, int interval)
    : num_workers_(num_workers),
      interval_(interval),
      worker_state_(num_workers),
      logs_(num_workers) {
  FLASH_CHECK_GE(num_workers, 1);
  FLASH_CHECK_GE(interval, 1);
}

bool CheckpointManager::Due(uint64_t superstep) const {
  if (!has_snapshot_) return true;
  return superstep >= snapshot_step_ + static_cast<uint64_t>(interval_);
}

void CheckpointManager::StoreSnapshot(
    uint64_t superstep, std::vector<std::vector<uint8_t>> worker_state,
    std::vector<uint8_t> frontier, FaultStats& stats) {
  FLASH_CHECK_EQ(worker_state.size(), static_cast<size_t>(num_workers_));
  OBS_SPAN_VAR(seal_span, tracer_, "ckpt:seal", obs::SpanKind::kCheckpoint);
  worker_state_ = std::move(worker_state);
  frontier_ = std::move(frontier);
  uint64_t bytes = frontier_.size();
  for (auto& blob : worker_state_) {
    SealCheckpointFrame(blob);
    bytes += blob.size();
  }
  has_snapshot_ = true;
  snapshot_step_ = superstep;
  for (BufferWriter& log : logs_) log.Clear();
  ++stats.checkpoints;
  stats.checkpoint_bytes += bytes;
  seal_span.args(bytes, static_cast<uint64_t>(num_workers_));
}

}  // namespace flash
