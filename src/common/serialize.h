#ifndef FLASH_COMMON_SERIALIZE_H_
#define FLASH_COMMON_SERIALIZE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"

namespace flash {

/// Pooled buffers below this retained size are never reallocated: the win
/// from returning a few KiB does not pay for the realloc churn.
inline constexpr size_t kPoolMinRetainBytes = 4096;

/// Clears a pooled vector and bounds its retained capacity. `high_water` is
/// a per-buffer decayed usage mark: it tracks the recent peak (decaying 25%
/// per cycle toward current usage), and the buffer is reallocated down to it
/// once capacity exceeds twice the mark. A frontier spike therefore keeps
/// its capacity for the following supersteps but is released within a few
/// quiet cycles, so lane/channel memory stays bounded by recent — not
/// all-time — peaks.
template <typename Vec>
void RecyclePooled(Vec& v, size_t& high_water) {
  using T = typename Vec::value_type;
  const size_t used = v.size();
  v.clear();
  high_water = std::max(used, high_water - high_water / 4);
  if (v.capacity() > 2 * high_water &&
      v.capacity() * sizeof(T) > kPoolMinRetainBytes) {
    Vec trimmed;
    trimmed.reserve(high_water);
    v.swap(trimmed);
  }
}

// --- Varint runs -----------------------------------------------------------
//
// Every id column — wire frames and FLSHBLK2 adjacency lists — is a run of
// LEB128 varints, and one kernel decodes them: DecodeVarints turns `count`
// varints into raw 64-bit values, and the id readers below resolve those
// into ids (prefix sum, delta cap, vertex bound) in a second pass.
//
// The kernel has two loops. The scalar loop (DecodeVarint, one byte at a
// time) decodes anything. The fast loop needs BMI2: it loads 8 bytes,
// gathers their terminator bits into an 8-bit mask with one `pext`, and
// looks up in a 256-entry table how many varints end in the word and where
// each starts; a second `pext` packs the 7-bit groups, and each value is a
// shift and a `bzhi` of that. It writes 8 values per step (the unused ones
// are overwritten by the next step), so it runs while at least 8 values
// and 8 bytes remain, and it stops at a word that holds no terminator (a
// varint of 9 or 10 bytes). The scalar loop decodes everything it leaves.
// The fast loop is picked once per process from the CPU's feature bits.
// AMD Zen 1 and 2 have BMI2 but run `pext` in microcode, with a latency
// that grows with the mask's set bits (Agner Fog's instruction tables, the
// Zen and Zen 2 pages; uops.info, PEXT r64, r64, r64), and the fast loop's
// masks set 56 of 64 bits, so those CPUs keep the scalar loop. Intel since Haswell and Zen 3 run
// `pext` in 3 cycles. No Zen 1/2 host has timed the two loops.

/// Decodes one varint at `p`, moving `p` past it. Returns false, leaving
/// `p` unchanged, when [p, end) ends first or the varint runs past 10 bytes.
inline bool DecodeVarint(const uint8_t*& p, const uint8_t* end,
                         uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  const uint8_t* q = p;
  while (true) {
    if (q >= end || shift > 63) return false;
    const uint8_t byte = *q++;
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = value;
  p = q;
  return true;
}

namespace varint_detail {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLASH_VARINT_FAST_LOOP 1

/// Where the varints that end in one 8-byte word sit: value k is
/// `width[k]` bits at bit `shift[k]` of the word's packed 7-bit groups
/// (width 0 past `count`), and the word's first `consumed` bytes are done.
struct WordLayout {
  uint8_t count = 0;
  uint8_t consumed = 0;
  uint8_t shift[8] = {};
  uint8_t width[8] = {};
};

/// Indexed by the word's terminator mask (bit i: byte i ends a varint).
constexpr std::array<WordLayout, 256> MakeWordLayouts() {
  std::array<WordLayout, 256> layouts{};
  for (int stops = 0; stops < 256; ++stops) {
    WordLayout& layout = layouts[stops];
    int start = 0;
    for (int i = 0; i < 8; ++i) {
      if ((stops >> i & 1) == 0) continue;
      layout.shift[layout.count] = static_cast<uint8_t>(7 * start);
      layout.width[layout.count] = static_cast<uint8_t>(7 * (i + 1 - start));
      ++layout.count;
      start = i + 1;
    }
    layout.consumed = static_cast<uint8_t>(start);
  }
  return layouts;
}

inline constexpr std::array<WordLayout, 256> kWordLayouts = MakeWordLayouts();

/// The BMI2 fast loop; `on_step()` runs once per 8-byte step.
template <typename OnStep>
__attribute__((target("bmi2"))) size_t DecodeFast(const uint8_t*& p,
                                                  const uint8_t* end,
                                                  uint64_t* out, size_t count,
                                                  OnStep& on_step) {
  size_t done = 0;
  const uint8_t* q = p;
  while (count - done >= 8 && end - q >= 8) {
    uint64_t word;
    std::memcpy(&word, q, sizeof(word));
    const uint64_t stops = _pext_u64(~word, 0x8080808080808080ull);
    if (stops == 0) break;
    const WordLayout& layout = kWordLayouts[stops];
    const uint64_t bits = _pext_u64(word, 0x7F7F7F7F7F7F7F7Full);
    for (int k = 0; k < 8; ++k) {
      out[done + k] = _bzhi_u64(bits >> layout.shift[k], layout.width[k]);
    }
    done += layout.count;
    q += layout.consumed;
    on_step();
  }
  p = q;
  return done;
}

#else
#define FLASH_VARINT_FAST_LOOP 0
#endif

}  // namespace varint_detail

/// True when DecodeVarints runs the BMI2 fast loop on this CPU: BMI2 is
/// present and the CPU is not Zen 1/2, where `pext` is microcoded (see
/// above). Decided once per process.
inline bool FastVarintLoopSelected() {
#if FLASH_VARINT_FAST_LOOP
  static const bool selected = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && !__builtin_cpu_is("znver1") &&
           !__builtin_cpu_is("znver2");
  }();
  return selected;
#else
  return false;
#endif
}

/// Decodes `count` varints from [p, end) into out[0 .. count) with the
/// scalar loop alone; otherwise as DecodeVarints.
inline size_t DecodeVarintsScalar(const uint8_t*& p, const uint8_t* end,
                                  uint64_t* out, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!DecodeVarint(p, end, out + i)) return i;
  }
  return count;
}

/// Decodes `count` varints from [p, end) into out[0 .. count), moving `p`
/// past them, and returns how many it decoded: fewer than `count` when
/// [p, end) ends first or a varint runs past 10 bytes, with `p` at that
/// varint. `on_step()` runs once per fast-loop step, a hook for work that
/// can ride along 8 bytes at a time (the block decoder's checksum).
template <typename OnStep>
inline size_t DecodeVarints(const uint8_t*& p, const uint8_t* end,
                            uint64_t* out, size_t count, OnStep&& on_step) {
  size_t done = 0;
#if FLASH_VARINT_FAST_LOOP
  if (count >= 8 && FastVarintLoopSelected()) {
    done = varint_detail::DecodeFast(p, end, out, count, on_step);
  }
#else
  (void)on_step;
#endif
  return done + DecodeVarintsScalar(p, end, out + done, count - done);
}

inline size_t DecodeVarints(const uint8_t*& p, const uint8_t* end,
                            uint64_t* out, size_t count) {
  return DecodeVarints(p, end, out, count, [] {});
}

/// Append-only byte sink. All inter-worker traffic in the simulated cluster
/// is encoded through this writer so that communication volume is measured
/// on real serialised bytes, exactly as an MPI transport would see them.
class BufferWriter {
 public:
  BufferWriter() = default;

  void Clear() { bytes_.clear(); }
  /// Clears and applies the pooled-capacity policy (RecyclePooled).
  void Recycle(size_t& high_water) { RecyclePooled(bytes_, high_water); }
  size_t size() const { return bytes_.size(); }
  size_t capacity() const { return bytes_.capacity(); }
  bool empty() const { return bytes_.empty(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Release() { return std::move(bytes_); }

  /// Exchanges contents with `other`, preserving both buffers' capacity
  /// (the hot path of the per-superstep message exchange).
  void SwapBytes(std::vector<uint8_t>& other) { bytes_.swap(other); }

  void WriteRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  /// Appends `n` zeroed bytes and returns where they start, for a writer
  /// that fills a fixed-size region in place (a frame's payload column).
  uint8_t* Extend(size_t n) {
    bytes_.resize(bytes_.size() + n);
    return bytes_.data() + bytes_.size() - n;
  }

  /// Fixed-width little-endian encoding of trivially copyable values.
  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "WritePod requires a trivially copyable type");
    WriteRaw(&value, sizeof(T));
  }

  /// LEB128 variable-length encoding; small ids and counts dominate graph
  /// message traffic, so this matters for measured byte volumes.
  void WriteVarint(uint64_t value) {
    while (value >= 0x80) {
      bytes_.push_back(static_cast<uint8_t>(value) | 0x80);
      value >>= 7;
    }
    bytes_.push_back(static_cast<uint8_t>(value));
  }

  void WriteString(const std::string& s) {
    WriteVarint(s.size());
    WriteRaw(s.data(), s.size());
  }

  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteVarint(v.size());
    if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(T));
  }

 private:
  std::vector<uint8_t> bytes_;
};

/// Sequential reader over a byte buffer produced by BufferWriter.
/// Out-of-bounds reads are programmer errors and abort (FLASH_CHECK).
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& bytes)
      : BufferReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// The next unread byte (in-place views of framed sections).
  const uint8_t* cursor() const { return data_ + pos_; }

  void ReadRaw(void* out, size_t n) {
    FLASH_CHECK_LE(pos_ + n, size_) << "BufferReader overrun";
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  /// Advances past `n` bytes without copying (framed-record readers).
  void Skip(size_t n) {
    FLASH_CHECK_LE(pos_ + n, size_) << "BufferReader overrun";
    pos_ += n;
  }

  template <typename T>
  T ReadPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    ReadRaw(&value, sizeof(T));
    return value;
  }

  uint64_t ReadVarint() {
    uint64_t value = 0;
    int shift = 0;
    while (true) {
      FLASH_CHECK_LT(pos_, size_) << "BufferReader varint overrun";
      uint8_t byte = data_[pos_++];
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      FLASH_CHECK_LE(shift, 63) << "varint too long";
    }
    return value;
  }

  /// Non-aborting ReadVarint for data of external provenance (wire frames,
  /// checkpoint payloads): returns false — leaving the reader position
  /// unspecified — on a truncated or over-long varint instead of crashing.
  bool TryReadVarint(uint64_t* out) {
    const uint8_t* p = cursor();
    if (!DecodeVarint(p, data_ + size_, out)) return false;
    pos_ = static_cast<size_t>(p - data_);
    return true;
  }

  std::string ReadString() {
    size_t n = ReadVarint();
    std::string s(n, '\0');
    ReadRaw(s.data(), n);
    return s;
  }

  template <typename T>
  std::vector<T> ReadPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t n = ReadVarint();
    std::vector<T> v(n);
    if (n > 0) ReadRaw(v.data(), n * sizeof(T));
    return v;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- WireBatch codec -------------------------------------------------------
//
// The one frame every byte of inter-worker traffic travels in — sparse
// round-1 updates, mirror sync, async messages, walker shipments — and the
// unit the checkpoint redo log is a sequence of. One frame coalesces all
// records a sender ships to one destination in one phase:
//
//   varint   header          count << 1 | sorted_flag   (count >= 1)
//   varint   mask            field mask every payload record was encoded
//                            with, or a format tag (kWalkerFrameMask, the
//                            async engine's kAsyncFrameMask)
//   varint   ids[count]      id column: ids[0] absolute, then plain deltas
//                            (id[i] - id[i-1] >= 0) when the sequence is
//                            non-decreasing (sorted_flag = 1), zigzag
//                            deltas otherwise
//   bytes    payloads        count records, contiguous, in id order
//
// The frame pays its header once per (channel, phase) and one small delta
// varint per id; senders emitting ascending ids (commit order) get the
// densest form. A frame with count == 0 is never emitted: empty channels
// carry zero bytes.
//
// Encoding never fails. ReadWireFrame is the one fallible reader: it checks
// the header, the mask and every id against the vertex bound, returning a
// Status — never crashing — on truncated or corrupt input, and leaves the
// reader at the first payload byte. Payload records are decoded by the
// caller (they need the VData, Message or walker type).

/// Id type carried by wire frames; matches VertexId (graph/graph.h).
using WireId = uint32_t;

/// One contiguous run of records contributing to a frame: `count` ids and
/// their already-serialised payload bytes. EncodeWireFrame concatenates
/// parts in order, so per-shard lanes merge into one frame without copying.
struct WireFramePart {
  const WireId* ids = nullptr;
  size_t count = 0;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
};

inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// The id-column coder shared by wire frames and FLSHBLK2 adjacency lists:
/// appends ids[0 .. count) as deltas from `prev` (the id before ids[0]) —
/// plain when the whole column is `sorted`, zigzag otherwise.
inline void WriteIdColumn(BufferWriter& out, WireId prev, const WireId* ids,
                          size_t count, bool sorted) {
  int64_t last = prev;
  for (size_t i = 0; i < count; ++i) {
    const int64_t delta = static_cast<int64_t>(ids[i]) - last;
    out.WriteVarint(sorted ? static_cast<uint64_t>(delta)
                           : ZigZagEncode64(delta));
    last = ids[i];
  }
}

/// The resolve step of an id column: turns the raw varints raw[0 ..
/// decoded) of a `count`-id column that follows `prev` into ids in out[0 ..
/// decoded), one id at a time. Every id is checked against `num_vertices`
/// before it is stored; a range escape returns InvalidArgument, and a
/// column whose varints ran out (decoded < count) then returns OutOfRange.
inline Status ResolveIdColumn(const uint64_t* raw, size_t decoded,
                              WireId prev, bool sorted, uint64_t num_vertices,
                              WireId* out, size_t count) {
  // A legitimate delta between 32-bit ids fits 33 bits (34 zigzagged);
  // anything larger is rejected before the add so corrupt input cannot
  // overflow the running id.
  constexpr uint64_t kDeltaCap = static_cast<uint64_t>(UINT32_MAX) << 2;
  int64_t last = prev;
  for (size_t i = 0; i < decoded; ++i) {
    if (raw[i] > kDeltaCap) {
      return Status::InvalidArgument("id column: delta exceeds id range");
    }
    last += sorted ? static_cast<int64_t>(raw[i]) : ZigZagDecode64(raw[i]);
    if (last < 0 || static_cast<uint64_t>(last) >= num_vertices) {
      return Status::InvalidArgument("id column: vertex id out of range");
    }
    out[i] = static_cast<WireId>(last);
  }
  if (decoded < count) return Status::OutOfRange("id column: truncated");
  return Status::OK();
}

/// Decodes the `count` ids that follow `prev` into out[0 .. count): raw
/// varints a chunk at a time, each chunk resolved before the next. Errors
/// as ResolveIdColumn, the first in column order.
inline Status ReadIdColumn(BufferReader& r, WireId prev, bool sorted,
                           uint64_t num_vertices, WireId* out, size_t count) {
  constexpr size_t kChunk = 256;
  uint64_t raw[kChunk];
  const uint8_t* const begin = r.cursor();
  const uint8_t* const end = begin + r.remaining();
  const uint8_t* p = begin;
  for (size_t done = 0; done < count;) {
    const size_t want = std::min(count - done, kChunk);
    const size_t got = DecodeVarints(p, end, raw, want);
    FLASH_RETURN_NOT_OK(ResolveIdColumn(raw, got, prev, sorted, num_vertices,
                                        out + done, want));
    done += want;
    prev = out[done - 1];
  }
  r.Skip(static_cast<size_t>(p - begin));
  return Status::OK();
}

/// Appends one frame built from `parts` (concatenated in order) to `out`.
/// Returns the number of records framed; writes nothing when that is zero.
inline uint64_t EncodeWireFrame(BufferWriter& out, uint32_t mask,
                                const WireFramePart* parts, size_t num_parts) {
  uint64_t count = 0;
  bool sorted = true;
  const WireId* prev = nullptr;  // Last id of the previous non-empty part.
  for (size_t p = 0; p < num_parts; ++p) {
    const WireFramePart& part = parts[p];
    if (part.count == 0) continue;
    count += part.count;
    sorted = sorted && (prev == nullptr || *prev <= part.ids[0]) &&
             std::is_sorted(part.ids, part.ids + part.count);
    prev = part.ids + part.count - 1;
  }
  if (count == 0) return 0;
  out.WriteVarint(count << 1 | (sorted ? 1 : 0));
  out.WriteVarint(mask);
  prev = nullptr;
  for (size_t p = 0; p < num_parts; ++p) {
    const WireFramePart& part = parts[p];
    if (part.count == 0) continue;
    if (prev == nullptr) {
      out.WriteVarint(part.ids[0]);
      WriteIdColumn(out, part.ids[0], part.ids + 1, part.count - 1, sorted);
    } else {
      WriteIdColumn(out, *prev, part.ids, part.count, sorted);
    }
    prev = part.ids + part.count - 1;
  }
  for (size_t p = 0; p < num_parts; ++p) {
    if (parts[p].payload_size != 0) {
      out.WriteRaw(parts[p].payload, parts[p].payload_size);
    }
  }
  return count;
}

/// Reads one frame's header and id column, appending its ids to `*ids`
/// and leaving `r` at the first payload byte. The frame must carry
/// `expected_mask` and ids below `num_vertices`. A reader of a stream that
/// mixes field masks (the redo log) passes `frame_mask`: the frame's mask
/// must then be a subset of `expected_mask` (an empty critical set syncs
/// under mask 0), and is stored there.
/// On error `*ids` holds unspecified extra entries.
inline Status ReadWireFrame(BufferReader& r, uint32_t expected_mask,
                            uint64_t num_vertices, std::vector<WireId>* ids,
                            uint32_t* frame_mask = nullptr) {
  uint64_t header = 0;
  uint64_t mask = 0;
  if (!r.TryReadVarint(&header) || !r.TryReadVarint(&mask)) {
    return Status::OutOfRange("wire frame: truncated header");
  }
  const bool mask_ok =
      frame_mask == nullptr
          ? mask == expected_mask
          : (mask & ~static_cast<uint64_t>(expected_mask)) == 0;
  if (!mask_ok) return Status::InvalidArgument("wire frame: unexpected mask");
  // Every id costs at least one byte, so a count beyond the remaining bytes
  // is corruption; reject it before sizing any decode buffer from it.
  const uint64_t count = header >> 1;
  if (count == 0 || count > r.remaining()) {
    return Status::OutOfRange("wire frame: bad record count");
  }
  uint64_t first = 0;
  if (!r.TryReadVarint(&first)) {
    return Status::OutOfRange("wire frame: truncated id column");
  }
  if (first >= num_vertices) {
    return Status::InvalidArgument("wire frame: vertex id out of range");
  }
  const size_t base = ids->size();
  ids->reserve(base + count);  // Exact growth: pooled capacity stays tight.
  ids->resize(base + count);
  WireId* column = ids->data() + base;
  column[0] = static_cast<WireId>(first);
  FLASH_RETURN_NOT_OK(ReadIdColumn(r, column[0], (header & 1) != 0,
                                   num_vertices, column + 1, count - 1));
  if (frame_mask != nullptr) *frame_mask = static_cast<uint32_t>(mask);
  return Status::OK();
}

// --- Adjacency lists (FLSHBLK2 block payloads) -----------------------------
//
// The compressed neighbor-list encoding of the version-2 edge-block file
// (graph/paged_storage.h), built on the same id column as wire frames. One
// list per vertex, in block vertex order; the list length is NOT stored —
// the decoder derives it from the RAM-resident CSR offsets:
//
//   varint   ids[0] << 1 | sorted_flag   first neighbor, absolute
//   varint   deltas[count - 1]           the id column after ids[0]
//
// GraphBuilder emits sorted adjacency, so real files take the plain-delta
// form; the zigzag fallback keeps arbitrary list orders round-trippable.
// An empty list writes nothing. Decoding is fallible (block payloads are
// untrusted on-disk bytes) and never writes an id outside [0, num_vertices).

/// Appends one vertex's neighbor list to `out` in the form above.
inline void EncodeAdjacency(BufferWriter& out, const WireId* ids,
                            size_t count) {
  if (count == 0) return;
  const bool sorted = std::is_sorted(ids, ids + count);
  out.WriteVarint(static_cast<uint64_t>(ids[0]) << 1 | (sorted ? 1 : 0));
  WriteIdColumn(out, ids[0], ids + 1, count - 1, sorted);
}

/// The resolve step of one list: turns the raw varints raw[0 .. decoded)
/// of a `count`-id list (head first) into out[0 .. decoded). Errors as
/// ResolveIdColumn, the first in list order; a list with no varint left
/// for its head is OutOfRange.
inline Status ResolveAdjacency(const uint64_t* raw, size_t decoded,
                               size_t count, uint64_t num_vertices,
                               WireId* out) {
  if (count == 0) return Status::OK();
  if (decoded == 0) {
    return Status::OutOfRange("adjacency: truncated list head");
  }
  if ((raw[0] >> 1) >= num_vertices) {
    return Status::InvalidArgument("adjacency: vertex id out of range");
  }
  out[0] = static_cast<WireId>(raw[0] >> 1);
  return ResolveIdColumn(raw + 1, decoded - 1, out[0], (raw[0] & 1) != 0,
                         num_vertices, out + 1, count - 1);
}

/// Decodes exactly `count` ids (the vertex's CSR degree) into `out[0 ..
/// count)`, advancing `r` past the list.
inline Status DecodeAdjacency(BufferReader& r, size_t count,
                              uint64_t num_vertices, WireId* out) {
  if (count == 0) return Status::OK();
  uint64_t head = 0;
  const size_t got = r.TryReadVarint(&head) ? 1 : 0;
  FLASH_RETURN_NOT_OK(ResolveAdjacency(&head, got, 1, num_vertices, out));
  return ReadIdColumn(r, out[0], (head & 1) != 0, num_vertices, out + 1,
                      count - 1);
}

/// Decodes the id section of one block payload [p, end): `num_lists` lists
/// back to back, list i holding offsets[i + 1] - offsets[i] ids (the
/// block's slice of the CSR offsets), into out[0 .. offsets[num_lists] -
/// offsets[0]), moving `p` past them. One kernel pass decodes every varint
/// and carries the FNV-1a chain of the whole payload along, 8 bytes a step:
/// the chain is latency-bound, and the decode hides under it. A digest
/// other than `checksum` is reported first; errors in the lists then come
/// in list order, as ResolveAdjacency names them.
inline Status DecodeBlockIds(const uint8_t*& p, const uint8_t* end,
                             uint64_t checksum, const uint64_t* offsets,
                             size_t num_lists, uint64_t num_vertices,
                             WireId* out) {
  const size_t edges = static_cast<size_t>(offsets[num_lists] - offsets[0]);
  thread_local std::vector<uint64_t> raw;
  if (raw.size() < edges) raw.resize(edges);
  uint64_t digest = Fnv1a64(nullptr, 0);
  const uint8_t* hashed = p;
  const size_t decoded = DecodeVarints(p, end, raw.data(), edges, [&] {
    if (end - hashed >= 8) {
      digest = Fnv1a64(hashed, 8, digest);
      hashed += 8;
    }
  });
  digest = Fnv1a64(hashed, static_cast<size_t>(end - hashed), digest);
  if (digest != checksum) {
    return Status::InvalidArgument("payload checksum mismatch");
  }
  for (size_t i = 0; i < num_lists; ++i) {
    const size_t start = static_cast<size_t>(offsets[i] - offsets[0]);
    const size_t degree = static_cast<size_t>(offsets[i + 1] - offsets[i]);
    const size_t available =
        std::min(degree, decoded - std::min(decoded, start));
    FLASH_RETURN_NOT_OK(ResolveAdjacency(raw.data() + start, available,
                                         degree, num_vertices, out + start));
  }
  return Status::OK();
}

// --- Sealed envelope -------------------------------------------------------
//
// Frames re-parsed from fault-injected deliveries and fuzz corpora (walker
// frames) travel sealed: length-prefixed, so several frames share one
// channel buffer, and digested, so any truncation or byte flip is caught
// before a body byte is parsed.
//
//   varint   length          body bytes that follow the checksum
//   u64le    checksum        Fnv1a64(varint-length bytes ++ body)
//   bytes    body

/// Appends `body` to `out` as one sealed frame.
inline void SealFrame(BufferWriter& out, const std::vector<uint8_t>& body) {
  const size_t start = out.size();
  out.WriteVarint(body.size());
  const uint64_t digest =
      Fnv1a64(body.data(), body.size(),
              Fnv1a64(out.bytes().data() + start, out.size() - start));
  out.WritePod(digest);
  out.WriteRaw(body.data(), body.size());
}

/// Opens the next sealed frame of `r`: verifies length and digest in place,
/// points `*body` at the frame's body and moves `r` past the frame. Never
/// reads beyond the declared frame.
inline Status OpenSealedFrame(BufferReader& r, BufferReader* body) {
  const uint8_t* prefix = r.cursor();
  uint64_t length = 0;
  if (!r.TryReadVarint(&length)) {
    return Status::OutOfRange("sealed frame: truncated length prefix");
  }
  const size_t prefix_size = static_cast<size_t>(r.cursor() - prefix);
  if (r.remaining() < sizeof(uint64_t)) {
    return Status::OutOfRange("sealed frame: truncated checksum");
  }
  const uint64_t stored = r.ReadPod<uint64_t>();
  if (length > r.remaining()) {
    return Status::OutOfRange("sealed frame: body exceeds buffer");
  }
  const uint8_t* data = r.cursor();
  r.Skip(length);
  if (Fnv1a64(data, length, Fnv1a64(prefix, prefix_size)) != stored) {
    return Status::IOError("sealed frame: checksum mismatch");
  }
  *body = BufferReader(data, length);
  return Status::OK();
}

// --- Walker frames ---------------------------------------------------------
//
// The on-wire unit of the random-walk engine (src/walks/): all walkers one
// worker ships to one destination in one walk step, sorted by (current
// vertex, walker id), as a sealed WireBatch frame:
//
//   mask     kWalkerFrameMask
//   ids      current vertices
//   payload  per record: varint walker_id, varint prev + 1 (0 = none)

/// Frame tag distinguishing walker frames from VData field masks ("WK").
inline constexpr uint32_t kWalkerFrameMask = 0x574Bu;

/// One in-flight walker crossing a partition boundary.
struct WalkerRecord {
  WireId cur = 0;       // Vertex the walker sits on (frame id column).
  uint64_t id = 0;      // Walker id — keys the counter PRNG.
  WireId prev = 0;      // Previous vertex, or kNoPrev for step 0 / PPR.

  static constexpr WireId kNoPrev = static_cast<WireId>(-1);

  bool operator==(const WalkerRecord&) const = default;
};

/// Pooled buffers EncodeWalkerFrame builds a frame in (contents clobbered).
struct WalkerFrameScratch {
  std::vector<WireId> ids;
  BufferWriter body;
};

/// Appends one sealed walker frame to `out`. Records should be sorted by
/// (cur, id) — the shuffle order the engine ships in, and the densest id
/// column. Empty record runs write nothing, like EncodeWireFrame.
inline uint64_t EncodeWalkerFrame(BufferWriter& out,
                                  const WalkerRecord* records, size_t count,
                                  WalkerFrameScratch& scratch) {
  if (count == 0) return 0;
  scratch.ids.clear();
  for (size_t i = 0; i < count; ++i) scratch.ids.push_back(records[i].cur);
  // Header and id column first, then the payload written in place behind
  // them: the body is built once and copied once, into the envelope.
  scratch.body.Clear();
  const WireFramePart part{scratch.ids.data(), count, nullptr, 0};
  EncodeWireFrame(scratch.body, kWalkerFrameMask, &part, 1);
  for (size_t i = 0; i < count; ++i) {
    scratch.body.WriteVarint(records[i].id);
    scratch.body.WriteVarint(
        records[i].prev == WalkerRecord::kNoPrev
            ? 0
            : static_cast<uint64_t>(records[i].prev) + 1);
  }
  SealFrame(out, scratch.body.bytes());
  return count;
}

/// Decodes the next walker frame from `r`, appending its records to
/// `*records`. Any corruption — truncation at every prefix, any byte flip,
/// a vertex at or past `num_vertices`, bytes left over in the body —
/// returns a Status and leaves the reader unusable for further frames.
inline Status DecodeWalkerFrame(BufferReader& r, uint64_t num_vertices,
                                std::vector<WalkerRecord>* records) {
  BufferReader body(nullptr, 0);
  FLASH_RETURN_NOT_OK(OpenSealedFrame(r, &body));
  thread_local std::vector<WireId> ids;
  ids.clear();
  FLASH_RETURN_NOT_OK(ReadWireFrame(body, kWalkerFrameMask, num_vertices, &ids));
  // Reserve only for multi-record frames: an exact reserve per one-record
  // frame would defeat push_back's geometric growth (quadratic copying).
  if (ids.size() > 1) records->reserve(records->size() + ids.size());
  for (const WireId cur : ids) {
    uint64_t id = 0;
    uint64_t prev_plus1 = 0;
    if (!body.TryReadVarint(&id) || !body.TryReadVarint(&prev_plus1)) {
      return Status::OutOfRange("walker frame: truncated record section");
    }
    if (prev_plus1 > num_vertices) {
      return Status::InvalidArgument("walker frame: prev vertex out of range");
    }
    records->push_back(
        {cur, id,
         prev_plus1 == 0 ? WalkerRecord::kNoPrev
                         : static_cast<WireId>(prev_plus1 - 1)});
  }
  if (!body.AtEnd()) {
    return Status::InvalidArgument("walker frame: trailing body bytes");
  }
  return Status::OK();
}

}  // namespace flash

#endif  // FLASH_COMMON_SERIALIZE_H_
