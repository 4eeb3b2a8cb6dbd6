#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace aims {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  AIMS_ASSIGN_OR_RETURN(int half, Half(x));
  AIMS_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = Half(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.ValueOrDie(), 4);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad = Half(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacroChains) {
  EXPECT_EQ(Quarter(8).ValueOrDie(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSinglePass) {
  Rng rng(5);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Gaussian(3.0, 2.0);
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.Add(42.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sample_variance(), 0.0);
}

TEST(ErrorMetricsTest, MseAndNmse) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(MeanSquaredError(a, b), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedMse(a, b), 0.0);
  b[3] = 6.0;
  EXPECT_DOUBLE_EQ(MeanSquaredError(a, b), 1.0);
  EXPECT_GT(NormalizedMse(a, b), 0.0);
}

TEST(ErrorMetricsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(10.0, 11.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
  EXPECT_GT(RelativeError(0.0, 1.0), 1.0);  // guarded by eps
}

TEST(ErrorMetricsTest, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  std::vector<double> constant = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, constant), 0.0);
}

TEST(ErrorMetricsTest, Percentile) {
  std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 90.0), 7.0);
}

TEST(RngTest, DeterministicWithSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
  // Roughly proportional for mixed weights.
  std::vector<double> mixed = {1.0, 3.0};
  size_t ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.Categorical(mixed);
  EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Fork();
  // Child and parent should not produce identical streams.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != child.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TablePrinterTest, CsvEscapesSpecialCells) {
  TablePrinter table({"name", "value"});
  table.AddRow();
  table.Cell("plain");
  table.Cell(int64_t{1});
  table.AddRow();
  table.Cell("with,comma");
  table.Cell("say \"hi\"");
  std::string csv = table.ToCsv();
  EXPECT_EQ(csv,
            "name,value\n"
            "plain,1\n"
            "\"with,comma\",\"say \"\"hi\"\"\"\n");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"name", "value"});
  table.AddRow();
  table.Cell("alpha");
  table.Cell(3.14159, 2);
  table.AddRow();
  table.Cell("b");
  table.Cell(int64_t{42});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("3.14"), std::string::npos);
  EXPECT_NE(rendered.find("42"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(rendered.find("|--"), std::string::npos);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(WriteFileDurablyTest, ReplacesAnExistingFileAndLeavesNoTmp) {
  const std::string dir = ::testing::TempDir() + "aims_durable_file_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/bundle.json";
  ASSERT_TRUE(WriteFileDurably(path, "first version, the longer one").ok());
  EXPECT_EQ(ReadFile(path), "first version, the longer one");
  ASSERT_TRUE(WriteFileDurably(path, std::string("sec\0nd", 6)).ok());
  EXPECT_EQ(ReadFile(path), std::string("sec\0nd", 6));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(WriteFileDurablyTest, MissingDirectoryIsIoError) {
  const std::string dir = ::testing::TempDir() + "aims_no_such_dir_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const Status status = WriteFileDurably(dir + "/file", "bytes");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ByteCodecTest, RoundTripsAndUnderflowIsSticky) {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  writer.U8(7);
  writer.U32(0xdeadbeefu);
  writer.U64(1ull << 40);
  writer.I64(-5);
  writer.F64(0.25);
  writer.Bytes("ab", 2);
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 8 + 2);

  ByteReader reader(bytes);
  EXPECT_EQ(reader.U8(), 7);
  EXPECT_EQ(reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64(), 1ull << 40);
  EXPECT_EQ(reader.I64(), -5);
  EXPECT_EQ(reader.F64(), 0.25);
  std::span<const uint8_t> tail = reader.Bytes(2);
  EXPECT_EQ(std::string(tail.begin(), tail.end()), "ab");
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);

  // Past the end: zero values, and the flag stays tripped even for a read
  // that would fit.
  ByteReader short_reader(std::span<const uint8_t>(bytes).first(3));
  EXPECT_EQ(short_reader.U8(), 7);
  EXPECT_EQ(short_reader.U32(), 0u);
  EXPECT_FALSE(short_reader.ok());
  EXPECT_EQ(short_reader.U8(), 0);
  EXPECT_TRUE(short_reader.Bytes(1).empty());
  EXPECT_FALSE(short_reader.ok());
}

/// The byte-wise CRC-32 the slicing-by-8 update must equal: one table
/// lookup per byte.
uint32_t ByteWiseCrc32Update(uint32_t crc, const uint8_t* p, size_t len) {
  crc ^= 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    uint32_t c = (crc ^ p[i]) & 0xFFu;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    crc = c ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
}

TEST(Crc32Test, EqualsTheByteWiseCrcAtEveryLengthAndAlignment) {
  Rng rng(20261017);
  std::vector<uint8_t> bytes(4096 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 4096; ++len) {
      const uint8_t* p = bytes.data() + align;
      ASSERT_EQ(Crc32(p, len), ByteWiseCrc32Update(0, p, len))
          << "length " << len << " at alignment " << align;
    }
  }
}

TEST(Crc32Test, ChainedUpdatesEqualOnePass) {
  Rng rng(7);
  std::vector<uint8_t> bytes(1000);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t cut = 0; cut <= bytes.size(); cut += 37) {
    const uint32_t head = Crc32(bytes.data(), cut);
    EXPECT_EQ(Crc32Update(head, bytes.data() + cut, bytes.size() - cut), whole)
        << "cut at " << cut;
    EXPECT_EQ(Crc32Update(head, bytes.data() + cut, bytes.size() - cut),
              ByteWiseCrc32Update(ByteWiseCrc32Update(0, bytes.data(), cut),
                                  bytes.data() + cut, bytes.size() - cut));
  }
}

}  // namespace
}  // namespace aims
