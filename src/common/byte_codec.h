#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

/// \file byte_codec.h
/// \brief The one fixed-width codec of the persisted record formats (the
/// catalog entry and snapshot, segment ops, the routing journal). Values
/// are copied in host byte order, like the WAL and page-file framing.

namespace aims {

/// \brief Appends fixed-width values to a record under construction.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void I64(int64_t v) { Fixed(v); }
  void F64(double v) { Fixed(v); }
  void Bytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

 private:
  template <typename T>
  void Fixed(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(v));
  }

  std::vector<uint8_t>* out_;
};

/// \brief Bounds-checked forward reader over one record. Underflow trips
/// a sticky failure flag instead of reading past the end, and every later
/// read returns zero; callers check ok() once after a run of reads.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  int64_t I64() { return Fixed<int64_t>(); }
  double F64() { return Fixed<double>(); }
  /// The next \p n bytes, in place; empty (and the flag tripped) when
  /// fewer remain.
  std::span<const uint8_t> Bytes(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::span<const uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  T Fixed() {
    T v{};
    std::span<const uint8_t> raw = Bytes(sizeof(T));
    if (!raw.empty()) std::memcpy(&v, raw.data(), sizeof(T));
    return v;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace aims
