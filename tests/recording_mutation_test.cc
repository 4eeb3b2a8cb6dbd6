// Seeded mutation test of the recording-file decoders: one WriteBinary
// file and one WriteCsv file are mutated by the shared harness (bit flips,
// byte stomps, truncation, extension, and inflation of the frame and
// channel counts) and read back. Every read must return a Status or a
// recording made only of values the file holds; nothing may crash, trip
// ASan/UBSan, or make an allocation larger than the intact read needed or
// twice the file's bytes. The operator new hook covers this whole binary,
// which is why the test has one of its own.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "allocation_tracker.h"
#include "mutation_harness.h"
#include "streams/recording_io.h"

namespace aims::streams {
namespace {

constexpr int kMutations = 1500;
constexpr size_t kFrames = 64;
constexpr size_t kChannels = 4;
/// WriteBinary's header: magic, version, frames (u64 at 8), channels (u64
/// at 16), sample rate; the frames follow.
constexpr size_t kFramesField = 8;
constexpr size_t kChannelsField = 16;
constexpr size_t kRateField = 24;
constexpr size_t kBinaryHeader = 32;

using Read = Result<Recording> (*)(const std::string&);

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Recording MakeRecording() {
  Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < kFrames; ++f) {
    Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    for (size_t c = 0; c < kChannels; ++c) {
      frame.values.push_back(std::sin(0.07 * static_cast<double>(f * (c + 1))));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

/// True when every double of \p rec sits at its row-major place in the
/// binary file \p file, the sample rate included.
bool HeldByBinary(const std::vector<uint8_t>& file, const Recording& rec) {
  auto at = [&file](size_t offset, double v) {
    return offset + sizeof(double) <= file.size() &&
           std::memcmp(file.data() + offset, &v, sizeof(v)) == 0;
  };
  if (!at(kRateField, rec.sample_rate_hz)) return false;
  size_t offset = kBinaryHeader;
  for (const Frame& frame : rec.frames) {
    if (!at(offset, frame.timestamp)) return false;
    offset += sizeof(double);
    for (double v : frame.values) {
      if (!at(offset, v)) return false;
      offset += sizeof(double);
    }
  }
  return true;
}

/// True when every timestamp and value of \p rec is a cell of the CSV
/// file \p file that parses whole as that double.
bool HeldByCsv(const std::vector<uint8_t>& file, const Recording& rec) {
  std::set<uint64_t> cells;
  std::string cell;
  for (size_t i = 0; i <= file.size(); ++i) {
    const char c = i < file.size() ? static_cast<char>(file[i]) : '\n';
    if (c != ',' && c != '\n') {
      cell.push_back(c);
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (!cell.empty() && end == cell.c_str() + cell.size()) {
      cells.insert(Bits(v));
    }
    cell.clear();
  }
  for (const Frame& frame : rec.frames) {
    if (cells.count(Bits(frame.timestamp)) == 0) return false;
    for (double v : frame.values) {
      if (cells.count(Bits(v)) == 0) return false;
    }
  }
  return true;
}

class RecordingMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "aims_recording_mutation_" +
            std::to_string(::getpid());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Reads \p bytes back through \p read, recording its largest allocation.
  Result<Recording> ReadBack(Read read, const std::vector<uint8_t>& bytes) {
    mutation::WriteFile(path_, bytes);
    mutation::ResetLargestAllocation();
    Result<Recording> result = read(path_);
    largest_allocation_ = mutation::LargestAllocation();
    return result;
  }

  /// Mutates \p intact kMutations times and checks every read. Returns how
  /// many reads were refused and how many decoded.
  std::pair<size_t, size_t> Run(
      Read read, const std::vector<uint8_t>& intact,
      const std::vector<mutation::Inflation>& inflations,
      bool (*held)(const std::vector<uint8_t>&, const Recording&)) {
    Result<Recording> whole = ReadBack(read, intact);
    EXPECT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(whole.ok() ? whole->num_frames() : 0, kFrames);
    const size_t intact_allocation = largest_allocation_;

    std::mt19937_64 rng(20261019);
    size_t refused = 0, decoded = 0;
    for (int i = 0; i < kMutations; ++i) {
      const std::vector<uint8_t> bytes =
          mutation::Mutate(intact, &rng, inflations);
      Result<Recording> result = ReadBack(read, bytes);
      EXPECT_LE(largest_allocation_,
                std::max(intact_allocation, 2 * bytes.size()))
          << "mutation " << i << " of a " << bytes.size() << "-byte file";
      if (!result.ok()) {
        ++refused;
        continue;
      }
      ++decoded;
      EXPECT_TRUE(held(bytes, *result)) << "mutation " << i;
    }
    return {refused, decoded};
  }

  std::string path_;
  size_t largest_allocation_ = 0;
};

TEST_F(RecordingMutationTest, EveryBinaryMutationIsAStatusOrHeldValues) {
  ASSERT_TRUE(WriteBinary(MakeRecording(), path_).ok());
  const std::vector<uint8_t> intact = mutation::ReadFile(path_);
  ASSERT_EQ(intact.size(),
            kBinaryHeader + kFrames * (kChannels + 1) * sizeof(double));
  const std::vector<mutation::Inflation> inflations = {
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint64_t choices[] = {uint64_t{1} << 30, kFrames + 1,
                                    kFrames * 4, (*r)()};
        mutation::PatchU64(m, kFramesField, choices[(*r)() % 4]);
      },
      [](std::vector<uint8_t>* m, std::mt19937_64* r) {
        const uint64_t choices[] = {uint64_t{1} << 20, kChannels + 1, 1,
                                    (*r)()};
        mutation::PatchU64(m, kChannelsField, choices[(*r)() % 4]);
      }};
  const auto [refused, decoded] =
      Run(&ReadBinary, intact, inflations, &HeldByBinary);
  // The budget must reach both outcomes, or the mutations are not
  // reaching the decoder.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST_F(RecordingMutationTest, EveryCsvMutationIsAStatusOrHeldValues) {
  ASSERT_TRUE(WriteCsv(MakeRecording(), path_).ok());
  const std::vector<uint8_t> intact = mutation::ReadFile(path_);
  // CSV has no count fields: the header's column list and one row's cell
  // list are what a reader could size by.
  auto widen_line = [](std::vector<uint8_t>* m, size_t line,
                       std::mt19937_64* r) {
    auto end = std::find(m->begin(), m->end(), '\n');
    for (size_t l = 0; l < line && end != m->end(); ++l) {
      end = std::find(end + 1, m->end(), '\n');
    }
    std::string extra;
    for (uint64_t k = 1 + (*r)() % 64; k > 0; --k) extra += ",7";
    m->insert(end, extra.begin(), extra.end());
  };
  const std::vector<mutation::Inflation> inflations = {
      [widen_line](std::vector<uint8_t>* m, std::mt19937_64* r) {
        widen_line(m, 0, r);
      },
      [widen_line](std::vector<uint8_t>* m, std::mt19937_64* r) {
        widen_line(m, 1 + (*r)() % kFrames, r);
      }};
  const auto [refused, decoded] =
      Run(&ReadCsv, intact, inflations, &HeldByCsv);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace aims::streams
