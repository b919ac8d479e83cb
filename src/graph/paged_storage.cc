#include "graph/paged_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "obs/tracer.h"

namespace flash {

namespace {

/// Frontier fraction of the vertices at or above which a pull epoch
/// (PlanSweep) loads its whole direction before compute (M-Flash dense
/// schedule), provided it fits the cache budget; below it the epoch
/// demand-loads the blocks it reads.
constexpr double kDenseFraction = 0.25;

uint64_t HeaderChecksum(const BlockFileHeader& header,
                        const std::vector<EdgeId>& out_offsets,
                        const std::vector<EdgeId>& in_offsets,
                        const std::vector<BlockMeta>& out_metas,
                        const std::vector<BlockMeta>& in_metas) {
  BlockFileHeader scrubbed = header;
  scrubbed.meta_checksum = 0;
  uint64_t h = Fnv1a64(&scrubbed, sizeof(scrubbed));
  h = Fnv1a64(out_offsets.data(), out_offsets.size() * sizeof(EdgeId), h);
  h = Fnv1a64(in_offsets.data(), in_offsets.size() * sizeof(EdgeId), h);
  h = Fnv1a64(out_metas.data(), out_metas.size() * sizeof(BlockMeta), h);
  h = Fnv1a64(in_metas.data(), in_metas.size() * sizeof(BlockMeta), h);
  return h;
}

Status ValidateOffsets(const std::vector<EdgeId>& offsets, EdgeId num_edges,
                       const std::string& path, const char* what) {
  if (offsets.empty() || offsets.front() != 0) {
    return Status::InvalidArgument(path + ": " + what +
                                   " offsets must start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::InvalidArgument(path + ": " + what +
                                     " offsets not monotonic");
    }
  }
  if (offsets.back() != num_edges) {
    return Status::InvalidArgument(path + ": " + what +
                                   " offsets do not sum to the edge count");
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<PagedStorage>> PagedStorage::Open(
    const std::string& path, const PagedOptions& options) {
  std::shared_ptr<PagedStorage> s(new PagedStorage());
  s->path_ = path;
  s->fd_ = ::open(path.c_str(), O_RDONLY);
  if (s->fd_ < 0) {
    return Status::IOError("cannot open " + path);
  }
  struct stat st;
  if (::fstat(s->fd_, &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  s->file_size_ = static_cast<uint64_t>(st.st_size);
  if (s->file_size_ < sizeof(BlockFileHeader)) {
    return Status::IOError(path + ": truncated block file header");
  }

  std::vector<uint8_t> scratch;
  FLASH_RETURN_NOT_OK(s->ReadRange(0, sizeof(BlockFileHeader), scratch));
  BlockFileHeader header;
  std::memcpy(&header, scratch.data(), sizeof(header));
  if (std::memcmp(header.magic, kBlockFileMagicV2,
                  sizeof(kBlockFileMagicV2)) != 0) {
    return Status::InvalidArgument(path + ": not a FLSHBLK2 block file");
  }
  if (header.version != kBlockFileVersionV2) {
    return Status::InvalidArgument(path + ": unsupported block file version " +
                                   std::to_string(header.version));
  }
  if (header.codec != static_cast<uint32_t>(BlockCodec::kDelta)) {
    return Status::InvalidArgument(path + ": unsupported block codec " +
                                   std::to_string(header.codec));
  }
  s->num_vertices_ = header.num_vertices;
  s->num_edges_ = header.num_edges;
  s->symmetric_ = header.symmetric != 0;
  s->weighted_ = header.weighted != 0;
  s->out_.out = true;
  s->in_.out = false;

  const uint64_t n = header.num_vertices;
  const uint64_t offsets_bytes = (n + 1) * sizeof(EdgeId);
  const uint64_t index_bytes =
      (static_cast<uint64_t>(header.num_out_blocks) + header.num_in_blocks) *
      sizeof(BlockMeta);
  const uint64_t meta_bytes =
      sizeof(BlockFileHeader) + 2 * offsets_bytes + index_bytes;
  if (meta_bytes > s->file_size_) {
    return Status::IOError(path + ": truncated block file metadata");
  }

  auto read_pods = [&](uint64_t offset, size_t count, auto& vec) -> Status {
    using T = typename std::remove_reference_t<decltype(vec)>::value_type;
    FLASH_RETURN_NOT_OK(s->ReadRange(offset, count * sizeof(T), scratch));
    vec.resize(count);
    std::memcpy(vec.data(), scratch.data(), count * sizeof(T));
    return Status::OK();
  };
  uint64_t cursor = sizeof(BlockFileHeader);
  FLASH_RETURN_NOT_OK(read_pods(cursor, n + 1, s->out_.offsets));
  cursor += offsets_bytes;
  FLASH_RETURN_NOT_OK(read_pods(cursor, n + 1, s->in_.offsets));
  cursor += offsets_bytes;
  FLASH_RETURN_NOT_OK(read_pods(cursor, header.num_out_blocks, s->out_.metas));
  cursor += header.num_out_blocks * sizeof(BlockMeta);
  FLASH_RETURN_NOT_OK(read_pods(cursor, header.num_in_blocks, s->in_.metas));

  if (HeaderChecksum(header, s->out_.offsets, s->in_.offsets, s->out_.metas,
                     s->in_.metas) != header.meta_checksum) {
    return Status::InvalidArgument(path + ": block file metadata checksum "
                                          "mismatch");
  }
  FLASH_RETURN_NOT_OK(
      ValidateOffsets(s->out_.offsets, s->num_edges_, path, "out"));
  FLASH_RETURN_NOT_OK(
      ValidateOffsets(s->in_.offsets, s->num_edges_, path, "in"));

  for (Direction* d : {&s->out_, &s->in_}) {
    const char* what = d->out ? "out" : "in";
    VertexId expected_first = 0;
    for (size_t i = 0; i < d->metas.size(); ++i) {
      const BlockMeta& meta = d->metas[i];
      if (meta.first_vertex != expected_first || meta.vertex_count == 0 ||
          static_cast<uint64_t>(meta.first_vertex) + meta.vertex_count > n) {
        return Status::InvalidArgument(path + ": " + what + " block " +
                                       std::to_string(i) +
                                       " has a malformed vertex range");
      }
      expected_first = meta.first_vertex + meta.vertex_count;
      const uint64_t edge_count =
          d->offsets[expected_first] - d->offsets[meta.first_vertex];
      const uint64_t weight_bytes =
          s->weighted_ ? edge_count * sizeof(float) : 0;
      // A payload takes one to five bytes per edge plus the raw weights, so
      // a lying index is caught here, before any extent is read.
      const uint64_t lo = sizeof(BlockHeader) + edge_count + weight_bytes;
      const uint64_t hi = sizeof(BlockHeader) +
                          edge_count * kMaxDeltaBytesPerEdge + weight_bytes;
      const bool size_ok = edge_count == 0
                               ? meta.stored_bytes == sizeof(BlockHeader)
                               : meta.stored_bytes >= lo &&
                                     meta.stored_bytes <= hi;
      if (!size_ok) {
        return Status::InvalidArgument(path + ": " + what + " block " +
                                       std::to_string(i) +
                                       " size disagrees with the offsets");
      }
      if (meta.file_offset < meta_bytes ||
          meta.file_offset + meta.stored_bytes > s->file_size_ ||
          meta.file_offset + meta.stored_bytes < meta.file_offset) {
        return Status::IOError(path + ": " + what + " block " +
                               std::to_string(i) +
                               " extends beyond the file (truncated?)");
      }
      d->block_first.push_back(meta.first_vertex);
    }
    if (expected_first != n) {
      return Status::InvalidArgument(
          path + ": " + what + " blocks do not cover every vertex");
    }
    d->slots = std::make_unique<Slot[]>(d->metas.size());
  }

  s->cache_bytes_ = options.cache_bytes;
  return s;
}

PagedStorage::~PagedStorage() {
  for (Direction* d : {&out_, &in_}) {
    if (d->slots == nullptr) continue;
    for (size_t i = 0; i < d->metas.size(); ++i) {
      delete d->slots[i].data.load(std::memory_order_relaxed);
    }
  }
  if (fd_ >= 0) ::close(fd_);
}

Status PagedStorage::ReadRange(uint64_t offset, uint64_t size,
                               std::vector<uint8_t>& buffer) const {
  buffer.resize(size);
  uint64_t done = 0;
  while (done < size) {
    const ssize_t got =
        ::pread(fd_, buffer.data() + done, size - done, offset + done);
    if (got < 0) {
      return Status::IOError(path_ + ": pread failed");
    }
    if (got == 0) {
      return Status::IOError(path_ + ": unexpected end of file");
    }
    done += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

uint32_t PagedStorage::BlockOf(const Direction& d, VertexId v) const {
  FLASH_DCHECK(!d.block_first.empty());
  auto it =
      std::upper_bound(d.block_first.begin(), d.block_first.end(), v);
  return static_cast<uint32_t>(it - d.block_first.begin() - 1);
}

uint64_t PagedStorage::DecodedPayloadBytes(const Direction& d,
                                           const BlockMeta& meta) const {
  const uint64_t edge_count =
      d.offsets[meta.first_vertex + meta.vertex_count] -
      d.offsets[meta.first_vertex];
  return edge_count * (sizeof(VertexId) + (weighted_ ? sizeof(float) : 0));
}

Result<PagedStorage::DecodedBlock> PagedStorage::DecodeBlock(
    const Direction& d, uint32_t block,
    const std::vector<uint8_t>& bytes) const {
  const BlockMeta& meta = d.metas[block];
  const char* what = d.out ? "out" : "in";
  if (bytes.size() != meta.stored_bytes ||
      bytes.size() < sizeof(BlockHeader)) {
    return Status::IOError(path_ + ": " + what + " block " +
                           std::to_string(block) + " short read");
  }
  BlockHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const EdgeId first_edge = d.offsets[meta.first_vertex];
  const uint64_t edge_count =
      d.offsets[meta.first_vertex + meta.vertex_count] - first_edge;
  if (header.magic != kBlockHeaderMagic ||
      header.dir != (d.out ? 0 : 1) || header.block_id != block ||
      header.first_vertex != meta.first_vertex ||
      header.edge_count != edge_count || header.pad0 != 0) {
    return Status::InvalidArgument(path_ + ": " + what + " block " +
                                   std::to_string(block) +
                                   " has a corrupt header");
  }
  // Every list is a run of varints and the lists sit back to back, so the
  // payload holds exactly edge_count varints, then the raw weights: one
  // kernel pass checks the payload's digest and decodes them all, each
  // list's degree taken from the RAM-resident offsets. A payload must be
  // consumed exactly — trailing bytes behind a valid checksum are still
  // corruption.
  const uint8_t* const payload_end = bytes.data() + bytes.size();
  const uint8_t* cursor = bytes.data() + sizeof(BlockHeader);
  DecodedBlock decoded;
  decoded.first_edge = first_edge;
  decoded.targets.resize(edge_count);
  const Status ids = DecodeBlockIds(
      cursor, payload_end, header.payload_checksum,
      d.offsets.data() + meta.first_vertex, meta.vertex_count, num_vertices_,
      decoded.targets.data());
  if (!ids.ok()) {
    return Status::InvalidArgument(path_ + ": " + what + " block " +
                                   std::to_string(block) + ": " +
                                   ids.message());
  }
  const uint64_t remaining = static_cast<uint64_t>(payload_end - cursor);
  if (weighted_) {
    if (remaining != edge_count * sizeof(float)) {
      return Status::InvalidArgument(path_ + ": " + what + " block " +
                                     std::to_string(block) +
                                     " weight section size mismatch");
    }
    decoded.weights.resize(edge_count);
    std::memcpy(decoded.weights.data(), cursor, edge_count * sizeof(float));
  } else if (remaining != 0) {
    return Status::InvalidArgument(path_ + ": " + what + " block " +
                                   std::to_string(block) +
                                   " has trailing payload bytes");
  }
  return decoded;
}

PagedStorage::DecodedBlock* PagedStorage::LoadBlock(Direction& d,
                                                    uint32_t block) {
  const BlockMeta& meta = d.metas[block];
  const uint64_t begin_ns = tracer_ != nullptr ? tracer_->NowNs() : 0;
  std::vector<uint8_t> bytes;
  Status read = ReadRange(meta.file_offset, meta.stored_bytes, bytes);
  FLASH_CHECK(read.ok()) << read.ToString();
  Result<DecodedBlock> decoded = DecodeBlock(d, block, bytes);
  // Open() validated all metadata and extents, so a decode failure here
  // means the payload rotted underneath us — not a recoverable state for a
  // running algorithm (spans would dangle); fail loudly.
  FLASH_CHECK(decoded.ok()) << decoded.status().ToString();
  auto* heap = new DecodedBlock(std::move(decoded).value());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.blocks_read;
    stats_.bytes_read += meta.stored_bytes;
    // Decode output is priced in decoded bytes: the work the decoder did.
    stats_.decode_bytes += heap->MemoryBytes();
    ++epoch_blocks_;
    epoch_bytes_ += meta.stored_bytes;
    epoch_decode_bytes_ += heap->MemoryBytes();
    resident_bytes_ += heap->MemoryBytes();
  }
  if (tracer_ != nullptr) {
    tracer_->Record("storage:block_read", obs::SpanKind::kStorage, 0, 0,
                    begin_ns, tracer_->NowNs(), block, meta.stored_bytes);
  }
  return heap;
}

const PagedStorage::DecodedBlock* PagedStorage::EnsureBlock(
    Direction& d, uint32_t block, bool count_access) {
  Slot& slot = d.slots[block];
  DecodedBlock* data = slot.data.load(std::memory_order_acquire);
  if (data == nullptr) {
    std::lock_guard<std::mutex> lock(slot.load_mu);
    data = slot.data.load(std::memory_order_relaxed);
    if (data == nullptr) {
      data = LoadBlock(d, block);
      slot.data.store(data, std::memory_order_release);
    }
  }
  if (count_access) {
    slot.last_used.store(epoch_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    epoch_accesses_.fetch_add(1, std::memory_order_relaxed);
    // Demand miss: the block was neither resident at the barrier nor in this
    // epoch's plan. Judged against barrier-time state (both fields are
    // driving-thread-written), not against who happened to load the block —
    // that keeps the count schedule-invariant under racing compute threads.
    if (!slot.resident_mark &&
        slot.plan_epoch != epoch_.load(std::memory_order_relaxed)) {
      epoch_demand_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return data;
}

std::span<const VertexId> PagedStorage::OutNeighbors(VertexId v) {
  const EdgeId lo = out_.offsets[v], hi = out_.offsets[v + 1];
  if (lo == hi) return {};
  const DecodedBlock* b = EnsureBlock(out_, BlockOf(out_, v), true);
  return {b->targets.data() + (lo - b->first_edge),
          b->targets.data() + (hi - b->first_edge)};
}

std::span<const VertexId> PagedStorage::InNeighbors(VertexId v) {
  const EdgeId lo = in_.offsets[v], hi = in_.offsets[v + 1];
  if (lo == hi) return {};
  const DecodedBlock* b = EnsureBlock(in_, BlockOf(in_, v), true);
  return {b->targets.data() + (lo - b->first_edge),
          b->targets.data() + (hi - b->first_edge)};
}

std::span<const float> PagedStorage::OutWeights(VertexId v) {
  FLASH_DCHECK(weighted_);
  const EdgeId lo = out_.offsets[v], hi = out_.offsets[v + 1];
  if (lo == hi) return {};
  const DecodedBlock* b = EnsureBlock(out_, BlockOf(out_, v), true);
  return {b->weights.data() + (lo - b->first_edge),
          b->weights.data() + (hi - b->first_edge)};
}

std::span<const float> PagedStorage::InWeights(VertexId v) {
  FLASH_DCHECK(weighted_);
  const EdgeId lo = in_.offsets[v], hi = in_.offsets[v + 1];
  if (lo == hi) return {};
  const DecodedBlock* b = EnsureBlock(in_, BlockOf(in_, v), true);
  return {b->weights.data() + (lo - b->first_edge),
          b->weights.data() + (hi - b->first_edge)};
}

void PagedStorage::ForEachOutEdge(const EdgeFn& fn) {
  std::vector<uint8_t> bytes;
  for (uint32_t bi = 0; bi < out_.metas.size(); ++bi) {
    const BlockMeta& meta = out_.metas[bi];
    const DecodedBlock* block =
        out_.slots[bi].data.load(std::memory_order_acquire);
    DecodedBlock scratch;
    if (block == nullptr) {
      // Sequential streaming read, deliberately not cached: whole-graph
      // scans (partition construction, exports) would wipe the working set.
      Status read = ReadRange(meta.file_offset, meta.stored_bytes, bytes);
      FLASH_CHECK(read.ok()) << read.ToString();
      Result<DecodedBlock> decoded = DecodeBlock(out_, bi, bytes);
      FLASH_CHECK(decoded.ok()) << decoded.status().ToString();
      scratch = std::move(decoded).value();
      block = &scratch;
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.stream_bytes += meta.stored_bytes;
    }
    const VertexId end = meta.first_vertex + meta.vertex_count;
    for (VertexId u = meta.first_vertex; u < end; ++u) {
      for (EdgeId e = out_.offsets[u]; e < out_.offsets[u + 1]; ++e) {
        const size_t k = static_cast<size_t>(e - block->first_edge);
        fn(u, block->targets[k], weighted_ ? block->weights[k] : 1.0f);
      }
    }
  }
}

void PagedStorage::BeginEpoch() {
  RefreshResidentMarks();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.epochs;
}

void PagedStorage::PlanBlocks(ThreadPool& pool,
                              std::span<const VertexId> vertices,
                              bool out_dir) {
  Direction& d = dir(out_dir);
  if (d.metas.empty()) return;
  std::vector<uint32_t> needed;
  for (VertexId v : vertices) {
    if (d.offsets[v] == d.offsets[v + 1]) continue;
    needed.push_back(BlockOf(d, v));
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  const uint64_t cur_epoch = epoch_.load(std::memory_order_relaxed);
  std::erase_if(needed, [&](uint32_t bi) {
    const Slot& slot = d.slots[bi];
    return slot.resident_mark || slot.plan_epoch == cur_epoch;
  });
  if (!needed.empty()) LoadPlanned(pool, d, needed);
}

void PagedStorage::PlanSweep(ThreadPool& pool, bool out_dir,
                             uint64_t frontier_size) {
  Direction& d = dir(out_dir);
  if (d.metas.empty()) return;
  uint64_t total_bytes = 0;
  for (const BlockMeta& meta : d.metas) {
    total_bytes += DecodedPayloadBytes(d, meta);
  }
  const bool dense =
      static_cast<double>(frontier_size) >=
          kDenseFraction * static_cast<double>(num_vertices_) &&
      total_bytes <= cache_bytes_;
  if (!dense) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.sparse_plans;
    return;
  }
  const uint64_t cur_epoch = epoch_.load(std::memory_order_relaxed);
  std::vector<uint32_t> needed;
  for (uint32_t bi = 0; bi < d.metas.size(); ++bi) {
    const Slot& slot = d.slots[bi];
    if (!slot.resident_mark && slot.plan_epoch != cur_epoch) {
      needed.push_back(bi);
    }
  }
  LoadPlanned(pool, d, needed);
}

void PagedStorage::LoadPlanned(ThreadPool& pool, Direction& d,
                               const std::vector<uint32_t>& blocks) {
  // plan_epoch is written here, before the pool runs, so compute tasks of
  // this epoch never see a planned block as a demand miss.
  const uint64_t cur_epoch = epoch_.load(std::memory_order_relaxed);
  for (uint32_t bi : blocks) d.slots[bi].plan_epoch = cur_epoch;
  pool.ParallelForWorkers(static_cast<int>(blocks.size()), [&](int i) {
    EnsureBlock(d, blocks[i], /*count_access=*/false);
  });
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.dense_plans;
}

void PagedStorage::RefreshResidentMarks() {
  for (Direction* d : {&out_, &in_}) {
    for (size_t i = 0; i < d->metas.size(); ++i) {
      d->slots[i].resident_mark =
          d->slots[i].data.load(std::memory_order_relaxed) != nullptr;
    }
  }
}

EpochIo PagedStorage::EndEpoch() {
  EpochIo io;
  uint64_t resident_now = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    io.bytes = epoch_bytes_;
    io.blocks = epoch_blocks_;
    io.decode_bytes = epoch_decode_bytes_;
    epoch_bytes_ = 0;
    epoch_blocks_ = 0;
    epoch_decode_bytes_ = 0;
    stats_.accesses += epoch_accesses_.exchange(0, std::memory_order_relaxed);
    stats_.demand_misses +=
        epoch_demand_misses_.exchange(0, std::memory_order_relaxed);
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, resident_bytes_);
    resident_now = resident_bytes_;
  }
  if (resident_now > cache_bytes_) {
    // LRU at barrier granularity, deterministically ordered: stale epochs
    // first, ties by (direction, block id). All spans into these blocks
    // died at the barrier, so deletion is safe.
    struct Victim {
      uint64_t last_used;
      uint8_t direction;
      uint32_t block;
    };
    std::vector<Victim> victims;
    for (Direction* d : {&out_, &in_}) {
      for (uint32_t i = 0; i < d->metas.size(); ++i) {
        if (d->slots[i].data.load(std::memory_order_relaxed) != nullptr) {
          victims.push_back({d->slots[i].last_used.load(
                                 std::memory_order_relaxed),
                             static_cast<uint8_t>(d->out ? 0 : 1), i});
        }
      }
    }
    std::sort(victims.begin(), victims.end(), [](const Victim& a,
                                                 const Victim& b) {
      if (a.last_used != b.last_used) return a.last_used < b.last_used;
      if (a.direction != b.direction) return a.direction < b.direction;
      return a.block < b.block;
    });
    uint64_t evicted = 0;
    for (const Victim& v : victims) {
      if (resident_now <= cache_bytes_) break;
      Direction& d = v.direction == 0 ? out_ : in_;
      Slot& slot = d.slots[v.block];
      DecodedBlock* data = slot.data.load(std::memory_order_relaxed);
      resident_now -= data->MemoryBytes();
      delete data;
      slot.data.store(nullptr, std::memory_order_relaxed);
      slot.last_used.store(0, std::memory_order_relaxed);
      ++evicted;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    resident_bytes_ = resident_now;
    stats_.evictions += evicted;
  }
  RefreshResidentMarks();
  return io;
}

StorageStats PagedStorage::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  StorageStats copy = stats_;
  copy.accesses += epoch_accesses_.load(std::memory_order_relaxed);
  copy.demand_misses += epoch_demand_misses_.load(std::memory_order_relaxed);
  return copy;
}

uint64_t PagedStorage::total_block_bytes() const {
  uint64_t total = 0;
  for (const Direction* d : {&out_, &in_}) {
    for (const BlockMeta& meta : d->metas) total += meta.stored_bytes;
  }
  return total;
}

uint64_t PagedStorage::resident_bytes() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return resident_bytes_;
}

Status PagedStorage::VerifyAllBlocks() {
  std::vector<uint8_t> bytes;
  for (Direction* d : {&out_, &in_}) {
    for (uint32_t bi = 0; bi < d->metas.size(); ++bi) {
      FLASH_RETURN_NOT_OK(
          ReadRange(d->metas[bi].file_offset, d->metas[bi].stored_bytes,
                    bytes));
      Result<DecodedBlock> decoded = DecodeBlock(*d, bi, bytes);
      if (!decoded.ok()) return decoded.status();
    }
  }
  return Status::OK();
}

}  // namespace flash
