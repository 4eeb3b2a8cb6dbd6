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
  for (int i = bits - 1; i >= 0; --i) {
    if (bit_count_ % 8 == 0) bytes_.push_back(0);
    if ((value >> i) & 1) {
      bytes_.back() |= static_cast<uint8_t>(1u << (7 - bit_count_ % 8));
    }
    ++bit_count_;
  }
}

bool BitReader::Read(uint64_t* out, int bits) {
  if (bit_pos_ + static_cast<size_t>(bits) > size_ * 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < bits; ++i) {
    const size_t byte = bit_pos_ / 8;
    const size_t off = bit_pos_ % 8;
    v = (v << 1) | ((data_[byte] >> (7 - off)) & 1);
    ++bit_pos_;
  }
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
