// The little-endian byte codec shared by the shard wire format
// (serve/wire.h) and the shard snapshot format (serve/snapshot.h).
//
// Writers append fixed-width little-endian fields (floats by bit pattern,
// so NaN payloads, -0.0 and infinities round-trip bitwise) and
// count-prefixed vectors (u64 count, then the elements). The Reader is the
// decode discipline both formats promise: every read is bounds-checked
// through one cursor, and a vector count is validated against the bytes
// left BEFORE anything is allocated, so truncated or corrupt input comes
// back as IoError — never as undefined behaviour or a huge allocation.
// Errors carry the caller's prefix ("wire", "snapshot") so a message still
// names the format it came from.

#ifndef APAN_SERVE_CODEC_H_
#define APAN_SERVE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace apan {
namespace serve {
namespace codec {

/// Appends `v` as sizeof(T) little-endian bytes.
template <typename T>
void PutLE(std::vector<uint8_t>* out, T v) {
  static_assert(std::is_arithmetic_v<T> &&
                (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8));
  using Bits = std::conditional_t<
      sizeof(T) == 1, uint8_t,
      std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>>;
  const auto bits = std::bit_cast<Bits>(v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

/// Appends a u64 element count, then each element of `v`.
template <typename T>
void PutVec(std::vector<uint8_t>* out, const std::vector<T>& v) {
  PutLE<uint64_t>(out, v.size());
  for (const T x : v) PutLE<T>(out, x);
}

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { PutLE(out, v); }
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) { PutLE(out, v); }
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) { PutLE(out, v); }
inline void PutI32(std::vector<uint8_t>* out, int32_t v) { PutLE(out, v); }
inline void PutI64(std::vector<uint8_t>* out, int64_t v) { PutLE(out, v); }
inline void PutF32(std::vector<uint8_t>* out, float v) { PutLE(out, v); }
inline void PutF64(std::vector<uint8_t>* out, double v) { PutLE(out, v); }
inline void PutI32Vec(std::vector<uint8_t>* out,
                      const std::vector<int32_t>& v) {
  PutVec(out, v);
}
inline void PutI64Vec(std::vector<uint8_t>* out,
                      const std::vector<int64_t>& v) {
  PutVec(out, v);
}
inline void PutF32Vec(std::vector<uint8_t>* out, const std::vector<float>& v) {
  PutVec(out, v);
}
inline void PutF64Vec(std::vector<uint8_t>* out,
                      const std::vector<double>& v) {
  PutVec(out, v);
}

/// \brief Bounds-checked little-endian cursor over a byte span.
class Reader {
 public:
  /// `prefix` names the format in error messages ("wire", "snapshot");
  /// it must outlive the reader (string literals do).
  Reader(std::span<const uint8_t> data, const char* prefix)
      : data_(data), prefix_(prefix) {}

  size_t remaining() const { return data_.size() - pos_; }

  /// Reads sizeof(T) little-endian bytes into `*v`.
  template <typename T>
  Status Read(T* v, const char* what) {
    static_assert(std::is_arithmetic_v<T> &&
                  (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8));
    using Bits = std::conditional_t<
        sizeof(T) == 1, uint8_t,
        std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>>;
    if (remaining() < sizeof(T)) {
      return Status::IoError(internal::StrCat(
          prefix_, ": truncated payload reading ", what));
    }
    Bits bits = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      bits |= static_cast<Bits>(static_cast<Bits>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    *v = std::bit_cast<T>(bits);
    return Status::OK();
  }

  Status ReadU8(uint8_t* v, const char* what) { return Read(v, what); }
  Status ReadU32(uint32_t* v, const char* what) { return Read(v, what); }
  Status ReadU64(uint64_t* v, const char* what) { return Read(v, what); }
  Status ReadI32(int32_t* v, const char* what) { return Read(v, what); }
  Status ReadI64(int64_t* v, const char* what) { return Read(v, what); }
  Status ReadF32(float* v, const char* what) { return Read(v, what); }
  Status ReadF64(double* v, const char* what) { return Read(v, what); }

  /// Hands out the next `n` bytes as a view without copying (nested
  /// payloads decode in place from the enclosing one).
  Status ReadSpan(size_t n, std::span<const uint8_t>* out, const char* what) {
    if (remaining() < n) {
      return Status::IoError(internal::StrCat(
          prefix_, ": truncated payload reading ", what));
    }
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Reads a vector count and validates it against the bytes remaining:
  /// a count claiming more than remaining()/min_element_bytes elements
  /// cannot be satisfied, so it is rejected *before* any allocation (a
  /// corrupt count must not drive a huge reserve).
  Status ReadCount(uint64_t* count, size_t min_element_bytes,
                   const char* what) {
    APAN_RETURN_NOT_OK(ReadU64(count, what));
    const uint64_t cap =
        min_element_bytes == 0
            ? static_cast<uint64_t>(remaining())
            : static_cast<uint64_t>(remaining()) / min_element_bytes;
    if (*count > cap) {
      return Status::IoError(internal::StrCat(
          prefix_, ": corrupt count for ", what, " (", *count,
          " elements, ", remaining(), " bytes left)"));
    }
    return Status::OK();
  }

  /// Reads a count-prefixed vector written by PutVec.
  template <typename T>
  Status ReadVec(std::vector<T>* v, const char* what) {
    uint64_t count = 0;
    APAN_RETURN_NOT_OK(ReadCount(&count, sizeof(T), what));
    v->resize(static_cast<size_t>(count));
    for (T& x : *v) APAN_RETURN_NOT_OK(Read(&x, what));
    return Status::OK();
  }

  Status ReadI32Vec(std::vector<int32_t>* v, const char* what) {
    return ReadVec(v, what);
  }
  Status ReadI64Vec(std::vector<int64_t>* v, const char* what) {
    return ReadVec(v, what);
  }
  Status ReadF32Vec(std::vector<float>* v, const char* what) {
    return ReadVec(v, what);
  }
  Status ReadF64Vec(std::vector<double>* v, const char* what) {
    return ReadVec(v, what);
  }

 private:
  std::span<const uint8_t> data_;
  const char* prefix_;
  size_t pos_ = 0;
};

}  // namespace codec
}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_CODEC_H_
