#include "common/gorilla.h"

namespace aims::gorilla {

namespace {

inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline int LeadingZeros(uint64_t v) {
  return v == 0 ? 64 : __builtin_clzll(v);
}

inline int TrailingZeros(uint64_t v) {
  return v == 0 ? 64 : __builtin_ctzll(v);
}

// Delta-of-delta classes: prefix code, then the dod stored biased into an
// unsigned field of the class width. The 64-bit escape stores raw two's
// complement, so any int64 jump (wall-clock steps backwards included)
// round-trips.
struct DodClass {
  int64_t min;
  int64_t max;
  uint64_t prefix;
  int prefix_bits;
  int value_bits;
};
constexpr DodClass kDodClasses[] = {
    {-63, 64, 0b10, 2, 7},
    {-255, 256, 0b110, 3, 9},
    {-2047, 2048, 0b1110, 4, 12},
};

}  // namespace

void BitWriter::Write(uint64_t value, int bits) {
  if (bits <= 0) return;
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  const int used = static_cast<int>(bit_count_ % 8);
  bit_count_ += static_cast<size_t>(bits);
  // Grow once, then fill whole bytes: the first one topped up from the
  // partial last byte, the middle ones 8 bits at a time, the last one
  // left-aligned (MSB-first).
  const size_t first = bytes_.size() - (used > 0 ? 1 : 0);
  bytes_.resize((bit_count_ + 7) / 8);
  uint8_t* p = bytes_.data() + first;
  int left = bits;
  if (used > 0) {
    const int room = 8 - used;
    if (left <= room) {
      *p |= static_cast<uint8_t>(value << (room - left));
      return;
    }
    left -= room;
    *p++ |= static_cast<uint8_t>(value >> left);
  }
  while (left >= 8) {
    left -= 8;
    *p++ = static_cast<uint8_t>(value >> left);
  }
  if (left > 0) *p = static_cast<uint8_t>(value << (8 - left));
}

std::vector<uint8_t> BitWriter::TakeBytes() {
  // Exact-size hand-over: the growth slack of a doubling vector would
  // otherwise stay allocated for the sealed segment's whole life.
  bytes_.shrink_to_fit();
  bit_count_ = 0;
  return std::move(bytes_);
}

bool BitReader::Read(uint64_t* out, int bits) {
  if (bits < 0 || bit_pos_ + static_cast<size_t>(bits) > size_ * 8) {
    return false;
  }
  const uint8_t* p = data_ + bit_pos_ / 8;
  const int skip = static_cast<int>(bit_pos_ % 8);
  bit_pos_ += static_cast<size_t>(bits);
  int left = bits;
  uint64_t v = 0;
  if (skip > 0) {
    const int room = 8 - skip;
    v = *p++ & (0xFFu >> skip);
    if (left <= room) {
      *out = v >> (room - left);
      return true;
    }
    left -= room;
  }
  while (left >= 8) {
    v = (v << 8) | *p++;
    left -= 8;
  }
  if (left > 0) v = (v << left) | (*p >> (8 - left));
  *out = v;
  return true;
}

bool BitReader::ReadBit(bool* out) {
  uint64_t v;
  if (!Read(&v, 1)) return false;
  *out = v != 0;
  return true;
}

void GorillaEncoder::Append(int64_t t_ms, double value) {
  const uint64_t bits = DoubleBits(value);
  if (count_ == 0) {
    writer_.Write(static_cast<uint64_t>(t_ms), 64);
    writer_.Write(bits, 64);
    prev_t_ = static_cast<uint64_t>(t_ms);
    prev_delta_ = 0;
    prev_bits_ = bits;
    ++count_;
    return;
  }

  // Timestamp: delta-of-delta against the previous delta, in wrapping
  // uint64_t arithmetic (same bits as the signed difference, no overflow).
  const uint64_t delta = static_cast<uint64_t>(t_ms) - prev_t_;
  const int64_t dod = static_cast<int64_t>(delta - prev_delta_);
  if (dod == 0) {
    writer_.WriteBit(false);
  } else {
    bool written = false;
    for (const DodClass& c : kDodClasses) {
      if (dod >= c.min && dod <= c.max) {
        writer_.Write(c.prefix, c.prefix_bits);
        writer_.Write(static_cast<uint64_t>(dod - c.min), c.value_bits);
        written = true;
        break;
      }
    }
    if (!written) {
      writer_.Write(0b1111, 4);
      writer_.Write(static_cast<uint64_t>(dod), 64);
    }
  }
  prev_delta_ = delta;
  prev_t_ = static_cast<uint64_t>(t_ms);

  // Value: XOR against the previous value's bit pattern.
  const uint64_t x = bits ^ prev_bits_;
  prev_bits_ = bits;
  if (x == 0) {
    writer_.WriteBit(false);
  } else {
    writer_.WriteBit(true);
    int leading = LeadingZeros(x);
    const int trailing = TrailingZeros(x);
    // The leading-zero field is 5 bits; deeper runs are clamped (costs a
    // few extra meaningful bits, never correctness).
    if (leading > 31) leading = 31;
    if (prev_leading_ >= 0 && leading >= prev_leading_ &&
        trailing >= prev_trailing_) {
      // Control bit '0': the previous window still covers this XOR.
      writer_.WriteBit(false);
      const int window = 64 - prev_leading_ - prev_trailing_;
      writer_.Write(x >> prev_trailing_, window);
    } else {
      // Control bit '1': explicit new window. The length field stores
      // (meaningful bits - 1) in 6 bits, so a full 64-bit window fits.
      writer_.WriteBit(true);
      const int meaningful = 64 - leading - trailing;
      writer_.Write(static_cast<uint64_t>(leading), 5);
      writer_.Write(static_cast<uint64_t>(meaningful - 1), 6);
      writer_.Write(x >> trailing, meaningful);
      prev_leading_ = leading;
      prev_trailing_ = trailing;
    }
  }
  ++count_;
}

Result<std::vector<Sample>> GorillaDecode(const uint8_t* data, size_t size,
                                          size_t count) {
  std::vector<Sample> out;
  if (count == 0) return out;
  // The first sample is 128 raw bits and every later one at least 2 (one
  // timestamp bit, one value bit), so a count the bytes cannot hold is
  // corrupt — refuse it before reserving for it.
  if (size < 16 || (count - 1) > (size - 16) * 4) {
    return Status::InvalidArgument(
        "gorilla: sample count exceeds what the chunk can hold");
  }
  out.reserve(count);
  BitReader reader(data, size);
  const auto truncated = [] {
    return Status::InvalidArgument("gorilla: truncated chunk");
  };

  uint64_t raw;
  if (!reader.Read(&raw, 64)) return truncated();
  // Timestamp and delta wrap in uint64_t like the encoder's, so corrupt or
  // extreme deltas decode without signed overflow.
  uint64_t t = raw;
  if (!reader.Read(&raw, 64)) return truncated();
  uint64_t bits = raw;
  out.push_back(Sample{static_cast<int64_t>(t), BitsToDouble(bits)});

  uint64_t delta = 0;
  int leading = 0;
  int trailing = 0;
  bool have_window = false;
  while (out.size() < count) {
    // Timestamp prefix: count leading 1-bits (max 4).
    int ones = 0;
    while (ones < 4) {
      bool bit;
      if (!reader.ReadBit(&bit)) return truncated();
      if (!bit) break;
      ++ones;
    }
    if (ones > 0) {
      uint64_t dod;
      if (ones == 4) {
        if (!reader.Read(&raw, 64)) return truncated();
        dod = raw;
      } else {
        const DodClass& c = kDodClasses[ones - 1];
        if (!reader.Read(&raw, c.value_bits)) return truncated();
        dod = raw + static_cast<uint64_t>(c.min);
      }
      delta += dod;
    }
    t += delta;

    bool changed;
    if (!reader.ReadBit(&changed)) return truncated();
    if (changed) {
      bool new_window;
      if (!reader.ReadBit(&new_window)) return truncated();
      if (new_window) {
        if (!reader.Read(&raw, 5)) return truncated();
        leading = static_cast<int>(raw);
        if (!reader.Read(&raw, 6)) return truncated();
        const int meaningful = static_cast<int>(raw) + 1;
        trailing = 64 - leading - meaningful;
        if (trailing < 0) {
          return Status::InvalidArgument("gorilla: corrupt value window");
        }
        have_window = true;
        if (!reader.Read(&raw, meaningful)) return truncated();
        bits ^= raw << trailing;
      } else {
        if (!have_window) {
          return Status::InvalidArgument(
              "gorilla: window reuse before any window");
        }
        const int window = 64 - leading - trailing;
        if (!reader.Read(&raw, window)) return truncated();
        bits ^= raw << trailing;
      }
    }
    out.push_back(Sample{static_cast<int64_t>(t), BitsToDouble(bits)});
  }
  return out;
}

}  // namespace aims::gorilla
