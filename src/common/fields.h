#ifndef FLASH_COMMON_FIELDS_H_
#define FLASH_COMMON_FIELDS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/serialize.h"

// Field reflection for vertex-data structs.
//
// The paper's code generator statically analyses a FLASH program to decide
// which vertex properties are "critical" (must be synchronised to mirrors,
// Table II) and emits serialisation code for exactly those. We reproduce the
// same mechanism with a tiny reflection macro: a vertex-data struct lists its
// fields once,
//
//   struct BcData {
//     int32_t level;
//     double num;
//     double b;
//     FLASH_FIELDS(level, num, b)
//   };
//
// and the runtime can then serialise/deserialise any *subset* of fields
// selected by a bitmask. Algorithms declare their critical mask; a wrong
// mask leaves mirror replicas stale and fails the correctness tests, exactly
// as a wrong static analysis would.

namespace flash {

/// Field codecs: arithmetic/enum scalars, std::string, and vectors of
/// trivially copyable elements (neighbour lists, colour sets, ...).
struct FieldCodec {
  template <typename T, typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
  static void Write(BufferWriter& w, const T& value) {
    w.WritePod(value);
  }
  static void Write(BufferWriter& w, const std::string& value) {
    w.WriteString(value);
  }
  template <typename T>
  static void Write(BufferWriter& w, const std::vector<T>& value) {
    w.WritePodVector(value);
  }

  template <typename T, typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
  static void Read(BufferReader& r, T& value) {
    value = r.ReadPod<T>();
  }
  static void Read(BufferReader& r, std::string& value) {
    value = r.ReadString();
  }
  template <typename T>
  static void Read(BufferReader& r, std::vector<T>& value) {
    value = r.ReadPodVector<T>();
  }

  template <typename T, typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
  static size_t ByteSize(const T&) {
    return sizeof(T);
  }
  static size_t ByteSize(const std::string& value) { return value.size() + 1; }
  template <typename T>
  static size_t ByteSize(const std::vector<T>& value) {
    return value.size() * sizeof(T) + 1;
  }
};

namespace internal {
/// Test hook: when armed, every SerializeFields/PackFields call bumps the
/// counter. Lets the serialize-once regression test count encodes per
/// committed vertex. Arm/disarm only while no engine is running.
inline std::atomic<uint64_t>* field_encode_counter = nullptr;
}  // namespace internal

/// Arms (or, with nullptr, disarms) the global encode-counting test hook.
inline void SetFieldEncodeCounter(std::atomic<uint64_t>* counter) {
  internal::field_encode_counter = counter;
}

/// Mask selecting every field of a reflected struct.
template <typename T>
constexpr uint32_t AllFieldsMask() {
  static_assert(T::kNumFields <= 32, "at most 32 reflected fields");
  return T::kNumFields == 32 ? ~0u : ((1u << T::kNumFields) - 1u);
}

/// Serialises the fields of `value` selected by `mask` (bit i = field i, in
/// declaration order) into `w` and, when `all` is set, every field into
/// `all` in the same pass — the redo-logged commit's record. One encode.
template <typename T>
void SerializeFields(const T& value, uint32_t mask, BufferWriter& w,
                     BufferWriter* all = nullptr) {
  if (internal::field_encode_counter != nullptr) {
    internal::field_encode_counter->fetch_add(1, std::memory_order_relaxed);
  }
  value.ForEachField([&](int index, const auto& field) {
    if ((mask >> index) & 1u) FieldCodec::Write(w, field);
    if (all != nullptr) FieldCodec::Write(*all, field);
  });
}

/// Overwrites the fields of `value` selected by `mask` from `r`. Field order
/// must match the serialising side (it always does: declaration order).
template <typename T>
void DeserializeFields(T& value, uint32_t mask, BufferReader& r) {
  value.ForEachField([&](int index, auto& field) {
    if ((mask >> index) & 1u) FieldCodec::Read(r, field);
  });
}

/// Whether T's records are fixed-width, decided at compile time: a
/// trivially copyable struct holds no string or vector field, so any record
/// under a mask occupies exactly FixedFieldsByteSize<T>(mask) bytes and a
/// frame's payload column is record-addressed.
template <typename T>
inline constexpr bool kFixedWidthFields = std::is_trivially_copyable_v<T>;

/// The fixed-width record codec, byte-identical to SerializeFields: packs
/// the `mask` fields of `value` at `out`, one memcpy per field, and — when
/// `all` is set — every field at `all` in the same pass. One encode.
/// Returns the end of the `mask` record.
template <typename T>
uint8_t* PackFields(const T& value, uint32_t mask, uint8_t* out,
                    uint8_t* all = nullptr) {
  static_assert(kFixedWidthFields<T>);
  if (internal::field_encode_counter != nullptr) {
    internal::field_encode_counter->fetch_add(1, std::memory_order_relaxed);
  }
  value.ForEachField([&](int index, const auto& field) {
    if ((mask >> index) & 1u) {
      std::memcpy(out, &field, sizeof(field));
      out += sizeof(field);
    }
    if (all != nullptr) {
      std::memcpy(all, &field, sizeof(field));
      all += sizeof(field);
    }
  });
  return out;
}

/// Inverse of PackFields: overwrites the `mask` fields of `value` from the
/// record at `in`, which the caller has bounds-checked. Returns its end.
template <typename T>
const uint8_t* UnpackFields(T& value, uint32_t mask, const uint8_t* in) {
  static_assert(kFixedWidthFields<T>);
  value.ForEachField([&](int index, auto& field) {
    if ((mask >> index) & 1u) {
      std::memcpy(&field, in, sizeof(field));
      in += sizeof(field);
    }
  });
  return in;
}

/// Number of payload bytes SerializeFields would produce (metrics / the
/// "synchronise critical properties only" accounting).
template <typename T>
size_t FieldsByteSize(const T& value, uint32_t mask) {
  size_t total = 0;
  value.ForEachField([&](int index, const auto& field) {
    if ((mask >> index) & 1u) total += FieldCodec::ByteSize(field);
  });
  return total;
}

/// Byte size of any record under `mask`; valid only when
/// kFixedWidthFields<T>.
template <typename T>
size_t FixedFieldsByteSize(uint32_t mask) {
  T probe{};
  return FieldsByteSize(probe, mask);
}

}  // namespace flash

// --- macro plumbing -------------------------------------------------------

#define FLASH_FIELDS_NARG(...) \
  FLASH_FIELDS_NARG_(__VA_ARGS__, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
#define FLASH_FIELDS_NARG_(_1, _2, _3, _4, _5, _6, _7, _8, _9, _10, _11, _12, \
                           N, ...)                                            \
  N

#define FLASH_FIELDS_CAT(a, b) FLASH_FIELDS_CAT_(a, b)
#define FLASH_FIELDS_CAT_(a, b) a##b

#define FLASH_FIELDS_V1(v, i, f) v(i, f);
#define FLASH_FIELDS_V2(v, i, f, ...) v(i, f); FLASH_FIELDS_V1(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V3(v, i, f, ...) v(i, f); FLASH_FIELDS_V2(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V4(v, i, f, ...) v(i, f); FLASH_FIELDS_V3(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V5(v, i, f, ...) v(i, f); FLASH_FIELDS_V4(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V6(v, i, f, ...) v(i, f); FLASH_FIELDS_V5(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V7(v, i, f, ...) v(i, f); FLASH_FIELDS_V6(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V8(v, i, f, ...) v(i, f); FLASH_FIELDS_V7(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V9(v, i, f, ...) v(i, f); FLASH_FIELDS_V8(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V10(v, i, f, ...) v(i, f); FLASH_FIELDS_V9(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V11(v, i, f, ...) v(i, f); FLASH_FIELDS_V10(v, i + 1, __VA_ARGS__)
#define FLASH_FIELDS_V12(v, i, f, ...) v(i, f); FLASH_FIELDS_V11(v, i + 1, __VA_ARGS__)

#define FLASH_FIELDS_VISIT(v, ...)                                     \
  FLASH_FIELDS_CAT(FLASH_FIELDS_V, FLASH_FIELDS_NARG(__VA_ARGS__))     \
  (v, 0, __VA_ARGS__)

/// Declares field reflection for a vertex-data struct. Place after the field
/// declarations; lists fields in declaration order.
#define FLASH_FIELDS(...)                                              \
  static constexpr int kNumFields = FLASH_FIELDS_NARG(__VA_ARGS__);    \
  template <typename Visitor>                                          \
  void ForEachField(Visitor&& flash_visitor) {                         \
    FLASH_FIELDS_VISIT(flash_visitor, __VA_ARGS__)                     \
  }                                                                    \
  template <typename Visitor>                                          \
  void ForEachField(Visitor&& flash_visitor) const {                   \
    FLASH_FIELDS_VISIT(flash_visitor, __VA_ARGS__)                     \
  }

#endif  // FLASH_COMMON_FIELDS_H_
