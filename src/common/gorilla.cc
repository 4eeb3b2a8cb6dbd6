#include "common/gorilla.h"

#include <bit>

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

inline void StoreBigEndian(uint64_t word, uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(out, &word, sizeof(word));
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
  const int room = 64 - pending_;
  if (bits < room) {
    acc_ = (acc_ << bits) | value;
    pending_ += bits;
    return;
  }
  // The field completes the word with its top `room` bits and leaves its
  // low `spill` bits pending. An empty accumulator takes a 64-bit field
  // as the whole word (acc_ << 64 would be undefined).
  const int spill = bits - room;
  const uint64_t word =
      pending_ == 0 ? value : (acc_ << room) | (value >> spill);
  if (flushed_ == capacity_) Grow();
  StoreBigEndian(word, words_.get() + flushed_);
  flushed_ += 8;
  acc_ = value;
  pending_ = spill;
}

void BitWriter::Grow() {
  capacity_ = capacity_ == 0 ? 32 : capacity_ * 2;
  auto grown = std::make_unique_for_overwrite<uint8_t[]>(capacity_);
  if (flushed_ > 0) std::memcpy(grown.get(), words_.get(), flushed_);
  words_ = std::move(grown);
}

std::vector<uint8_t> BitWriter::bytes() const {
  const size_t tail = (static_cast<size_t>(pending_) + 7) / 8;
  std::vector<uint8_t> out;
  out.reserve(flushed_ + tail);
  out.assign(words_.get(), words_.get() + flushed_);
  if (tail > 0) {
    uint8_t last[8] = {};
    StoreBigEndian(acc_ << (64 - pending_), last);
    out.insert(out.end(), last, last + tail);
  }
  return out;
}

std::vector<uint8_t> BitWriter::TakeBytes() {
  std::vector<uint8_t> out = bytes();
  *this = BitWriter();
  return out;
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
  if (count_++ == 0) {
    writer_.Write(static_cast<uint64_t>(t_ms), 64);
    writer_.Write(bits, 64);
    prev_t_ = static_cast<uint64_t>(t_ms);
    prev_delta_ = 0;
    prev_bits_ = bits;
    return;
  }

  // Timestamp: delta-of-delta against the previous delta, in wrapping
  // uint64_t arithmetic (same bits as the signed difference, no overflow).
  // Its code is the head of the value's field below, so a sample usually
  // costs one write.
  const uint64_t delta = static_cast<uint64_t>(t_ms) - prev_t_;
  const int64_t dod = static_cast<int64_t>(delta - prev_delta_);
  uint64_t head = 0;
  int head_bits = dod == 0 ? 1 : 0;
  if (dod != 0) {
    for (const DodClass& c : kDodClasses) {
      if (dod >= c.min && dod <= c.max) {
        head = (c.prefix << c.value_bits) | static_cast<uint64_t>(dod - c.min);
        head_bits = c.prefix_bits + c.value_bits;
        break;
      }
    }
    if (head_bits == 0) {
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
    writer_.Write(head << 1, head_bits + 1);
    return;
  }
  int leading = LeadingZeros(x);
  const int trailing = TrailingZeros(x);
  // The leading-zero field is 5 bits; deeper runs are clamped (costs a few
  // extra meaningful bits, never correctness).
  if (leading > 31) leading = 31;
  if (prev_leading_ >= 0 && leading >= prev_leading_ &&
      trailing >= prev_trailing_) {
    // Control bits '10': the previous window still covers this XOR.
    head = (head << 2) | 0b10;
    head_bits += 2;
  } else {
    // Control bits '11': explicit new window. The length field stores
    // (meaningful bits - 1) in 6 bits, so a full 64-bit window fits.
    head = (head << 13) | (uint64_t{0b11} << 11) |
           (static_cast<uint64_t>(leading) << 6) |
           static_cast<uint64_t>(63 - leading - trailing);
    head_bits += 13;
    prev_leading_ = leading;
    prev_trailing_ = trailing;
  }
  // One write when head and window fit a word; head_bits >= 2 here, so
  // the shift stays below 64.
  const int window = 64 - prev_leading_ - prev_trailing_;
  if (head_bits + window <= 64) {
    writer_.Write((head << window) | (x >> prev_trailing_), head_bits + window);
  } else {
    writer_.Write(head, head_bits);
    writer_.Write(x >> prev_trailing_, window);
  }
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
