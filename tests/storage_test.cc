#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/rng.h"
#include "signal/dwt.h"
#include "signal/error_tree.h"
#include "signal/wavelet_filter.h"
#include "storage/allocation.h"
#include "storage/block_device.h"
#include "storage/wavelet_store.h"
#include "test_util.h"

namespace aims::storage {
namespace {

using ::aims::testutil::RandomSignal;

/// The stored values of \p indices, read through FetchBlock: each block
/// holding one of them once, in ascending block order.
Result<std::map<size_t, double>> FetchValues(
    const WaveletStore& store, const std::vector<size_t>& indices) {
  std::set<size_t> blocks;
  for (size_t idx : indices) blocks.insert(store.allocator().BlockOf(idx));
  const std::set<size_t> wanted(indices.begin(), indices.end());
  std::map<size_t, double> out;
  for (size_t b : blocks) {
    AIMS_ASSIGN_OR_RETURN(std::vector<double> values, store.FetchBlock(b));
    const std::span<const size_t> slots = store.layout()->contents(b);
    for (size_t k = 0; k < slots.size(); ++k) {
      if (wanted.count(slots[k]) > 0) out[slots[k]] = values[k];
    }
  }
  return out;
}

TEST(BlockDeviceTest, ReadWriteAndCounters) {
  MemBlockDevice device(64);
  BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, {1, 2, 3}).ok());
  auto read = device.Read(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(device.reads(), 1u);
  EXPECT_EQ(device.writes(), 1u);
  EXPECT_GT(device.simulated_ms(), 0.0);
  device.ResetCounters();
  EXPECT_EQ(device.reads(), 0u);
}

TEST(BlockDeviceTest, ErrorsOnBadAccess) {
  MemBlockDevice device(8);
  EXPECT_FALSE(device.Read(0).ok());
  EXPECT_FALSE(device.Write(0, {}).ok());
  BlockId id = device.Allocate();
  EXPECT_FALSE(device.Write(id, std::vector<uint8_t>(9, 0)).ok());
}

class AllocatorCoverageTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(AllocatorCoverageTest, EveryAllocatorCoversAllCoefficients) {
  auto [n, block_size] = GetParam();
  SequentialAllocator seq(n, block_size);
  TimeOrderAllocator time_order(n, block_size);
  RandomAllocator random(n, block_size, 42);
  SubtreeTilingAllocator tiling(n, block_size);
  for (const CoefficientAllocator* alloc :
       std::initializer_list<const CoefficientAllocator*>{
           &seq, &time_order, &random, &tiling}) {
    std::vector<size_t> per_block(alloc->num_blocks(), 0);
    for (size_t i = 0; i < n; ++i) {
      size_t b = alloc->BlockOf(i);
      ASSERT_LT(b, alloc->num_blocks()) << alloc->name();
      ++per_block[b];
    }
    for (size_t b = 0; b < per_block.size(); ++b) {
      EXPECT_LE(per_block[b], block_size)
          << alloc->name() << " block " << b << " overflows";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllocatorCoverageTest,
    ::testing::Combine(::testing::Values<size_t>(64, 256, 4096),
                       ::testing::Values<size_t>(4, 16, 64)));

TEST(SubtreeTilingTest, PointQueryTouchesFewBlocks) {
  const size_t n = 4096;  // 12 levels, path length 13
  const size_t block = 64;
  SubtreeTilingAllocator tiling(n, block);
  SequentialAllocator seq(n, block);
  signal::HaarErrorTree tree(n);
  Rng rng(7);
  double tiling_blocks = 0.0, seq_blocks = 0.0;
  const int queries = 200;
  for (int q = 0; q < queries; ++q) {
    size_t i = static_cast<size_t>(rng.UniformInt(0, n - 1));
    std::vector<size_t> path = tree.PointQuerySupport(i);
    std::set<size_t> tb, sb;
    for (size_t k : path) {
      tb.insert(tiling.BlockOf(k));
      sb.insert(seq.BlockOf(k));
    }
    tiling_blocks += static_cast<double>(tb.size());
    seq_blocks += static_cast<double>(sb.size());
  }
  tiling_blocks /= queries;
  seq_blocks /= queries;
  // Path has 13 coefficients. Tiling should pack them into ~ceil(13/6)
  // blocks; level-order sequential scatters the fine levels.
  EXPECT_LT(tiling_blocks, 3.5);
  EXPECT_GT(seq_blocks, tiling_blocks);
}

TEST(SubtreeTilingTest, ItemsPerBlockApproachesOnePlusLgB) {
  const size_t n = 4096;
  signal::HaarErrorTree tree(n);
  Rng rng(8);
  std::vector<std::vector<size_t>> queries;
  for (int q = 0; q < 300; ++q) {
    size_t i = static_cast<size_t>(rng.UniformInt(0, n - 1));
    queries.push_back(tree.PointQuerySupport(i));
  }
  for (size_t block : {16, 64, 256}) {
    SubtreeTilingAllocator tiling(n, block);
    AccessReport report = MeasureAccess(tiling, queries);
    double bound = 1.0 + std::log2(static_cast<double>(block));
    // The bound is on the expectation; tiling should land within it and
    // not absurdly below (it is supposed to approach the bound).
    EXPECT_LE(report.mean_items_per_block, bound + 1e-9) << block;
    EXPECT_GE(report.mean_items_per_block, bound * 0.5) << block;
  }
}

TEST(MeasureAccessTest, TilingBeatsBaselinesOnPointQueries) {
  const size_t n = 4096;
  const size_t block = 64;
  signal::HaarErrorTree tree(n);
  Rng rng(9);
  std::vector<std::vector<size_t>> queries;
  for (int q = 0; q < 200; ++q) {
    size_t i = static_cast<size_t>(rng.UniformInt(0, n - 1));
    queries.push_back(tree.PointQuerySupport(i));
  }
  SubtreeTilingAllocator tiling(n, block);
  SequentialAllocator seq(n, block);
  RandomAllocator random(n, block, 1);
  double tiling_items = MeasureAccess(tiling, queries).mean_items_per_block;
  double seq_items = MeasureAccess(seq, queries).mean_items_per_block;
  double random_items = MeasureAccess(random, queries).mean_items_per_block;
  EXPECT_GT(tiling_items, seq_items);
  EXPECT_GT(tiling_items, random_items);
}

TEST(MeasureAccessTest, ReportFieldsConsistent) {
  SequentialAllocator seq(64, 8);
  std::vector<std::vector<size_t>> queries = {{0, 1, 2}, {8, 9}};
  AccessReport report = MeasureAccess(seq, queries);
  EXPECT_EQ(report.block_size, 8u);
  EXPECT_DOUBLE_EQ(report.mean_blocks_per_query, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_items_per_block, 2.5);
  EXPECT_DOUBLE_EQ(report.utilization, 2.5 / 8.0);
}

TEST(TensorAllocatorTest, ProductStructure) {
  TensorAllocator tensor({64, 64}, {8, 8});
  EXPECT_EQ(tensor.block_size(), 64u);
  EXPECT_GT(tensor.num_blocks(), 0u);
  // Same per-dimension virtual blocks => same actual block.
  SubtreeTilingAllocator one_dim(64, 8);
  size_t a = tensor.BlockOf({3, 10});
  size_t b = tensor.BlockOf({3, 11});
  if (one_dim.BlockOf(10) == one_dim.BlockOf(11)) {
    EXPECT_EQ(a, b);
  } else {
    EXPECT_NE(a, b);
  }
  // Different first coordinate block => different actual block.
  size_t c = tensor.BlockOf({40, 10});
  if (one_dim.BlockOf(3) != one_dim.BlockOf(40)) {
    EXPECT_NE(a, c);
  }
}

TEST(WaveletStoreTest, PutFetchRoundTrip) {
  const size_t n = 256;
  MemBlockDevice device(64 * sizeof(double));
  auto store = WaveletStore(
      &device, std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  Rng rng(10);
  std::vector<double> coeffs = RandomSignal(n, &rng);
  ASSERT_TRUE(store.Put(coeffs).ok());
  auto fetched = FetchValues(store, {0, 1, 17, 255});
  ASSERT_TRUE(fetched.ok());
  for (size_t idx : {size_t{0}, size_t{1}, size_t{17}, size_t{255}}) {
    ASSERT_TRUE(fetched.ValueOrDie().count(idx));
    EXPECT_DOUBLE_EQ(fetched.ValueOrDie().at(idx), coeffs[idx]);
  }
}

TEST(WaveletStoreTest, LayoutTablesEveryCoefficientOnce) {
  const size_t n = 1024;
  const BlockLayout layout(std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  ASSERT_EQ(layout.num_blocks(), layout.allocator().num_blocks());
  std::vector<int> seen(n, 0);
  size_t fullest = 0;
  for (size_t b = 0; b < layout.num_blocks(); ++b) {
    const auto contents = layout.contents(b);
    fullest = std::max(fullest, contents.size());
    for (size_t slot = 0; slot < contents.size(); ++slot) {
      EXPECT_EQ(layout.allocator().BlockOf(contents[slot]), b);
      if (slot > 0) {
        EXPECT_LT(contents[slot - 1], contents[slot]);
      }
      ++seen[contents[slot]];
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<long>(n));
  EXPECT_EQ(layout.max_block_items(), fullest);
  EXPECT_LE(fullest, 64u);
}

TEST(WaveletStoreTest, StoresSharingALayoutMatchOwnedAllocatorStores) {
  const size_t n = 512;
  MemBlockDevice device(64 * sizeof(double));
  auto layout = std::make_shared<const BlockLayout>(
      std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  Rng rng(14);
  const std::vector<double> a = RandomSignal(n, &rng);
  const std::vector<double> b = RandomSignal(n, &rng);
  WaveletStore shared_a(&device, layout);
  WaveletStore shared_b(&device, layout);
  // The unique_ptr constructor builds a private layout of the same shape.
  WaveletStore owned_a(&device,
                       std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  ASSERT_TRUE(shared_a.Put(a).ok());
  ASSERT_TRUE(shared_b.Put(b).ok());
  ASSERT_TRUE(owned_a.Put(a).ok());
  EXPECT_EQ(shared_a.layout(), shared_b.layout());
  EXPECT_NE(owned_a.layout(), shared_a.layout());
  ASSERT_EQ(owned_a.device_blocks().size(), shared_a.device_blocks().size());
  // Attaching to already-written blocks through the shared layout reads
  // back the same data.
  WaveletStore attached(&device, layout, nullptr, shared_a.device_blocks());
  for (size_t blk = 0; blk < layout->num_blocks(); ++blk) {
    auto from_owned = owned_a.FetchBlock(blk);
    auto from_shared = shared_a.FetchBlock(blk);
    auto from_attached = attached.FetchBlock(blk);
    ASSERT_TRUE(from_owned.ok() && from_shared.ok() && from_attached.ok());
    EXPECT_EQ(*from_owned, *from_shared);
    EXPECT_EQ(*from_attached, *from_shared);
    const std::span<const size_t> slots = layout->contents(blk);
    ASSERT_EQ(from_shared->size(), slots.size());
    for (size_t k = 0; k < slots.size(); ++k) {
      EXPECT_EQ((*from_shared)[k], a[slots[k]]);
    }
    auto from_b = shared_b.FetchBlock(blk);
    ASSERT_TRUE(from_b.ok());
    ASSERT_EQ(from_b->size(), slots.size());
    for (size_t k = 0; k < slots.size(); ++k) {
      EXPECT_EQ((*from_b)[k], b[slots[k]]);
    }
  }
}

TEST(WaveletStoreTest, FetchReadsEachBlockOnce) {
  const size_t n = 256;
  MemBlockDevice device(64 * sizeof(double));
  WaveletStore store(&device,
                     std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  Rng rng(11);
  ASSERT_TRUE(store.Put(RandomSignal(n, &rng)).ok());
  device.ResetCounters();
  signal::HaarErrorTree tree(n);
  std::vector<size_t> path = tree.PointQuerySupport(100);
  ASSERT_TRUE(FetchValues(store, path).ok());
  std::set<size_t> blocks;
  for (size_t idx : path) blocks.insert(store.allocator().BlockOf(idx));
  EXPECT_EQ(device.reads(), blocks.size());
  EXPECT_LE(device.reads(), 3u);
}

TEST(WaveletStoreTest, ErrorsOnMisuse) {
  const size_t n = 64;
  MemBlockDevice device(16 * sizeof(double));
  WaveletStore store(&device,
                     std::make_unique<SubtreeTilingAllocator>(n, 16), n);
  EXPECT_FALSE(store.FetchBlock(0).ok());  // before Put
  EXPECT_FALSE(store.Put(std::vector<double>(32, 0.0)).ok());
  ASSERT_TRUE(store.Put(std::vector<double>(n, 1.0)).ok());
  // out of range
  EXPECT_FALSE(store.FetchBlock(store.layout()->num_blocks()).ok());
}

TEST(WaveletStoreTest, RePutReusesDeviceBlocks) {
  const size_t n = 256;
  MemBlockDevice device(64 * sizeof(double));
  WaveletStore store(&device,
                     std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  Rng rng(13);
  ASSERT_TRUE(store.Put(RandomSignal(n, &rng)).ok());
  const size_t blocks_after_first = device.num_blocks();

  // Regression: Put used to Allocate() a fresh run of blocks on every call,
  // leaking the previous run. A second Put must overwrite in place.
  std::vector<double> second = RandomSignal(n, &rng);
  ASSERT_TRUE(store.Put(second).ok());
  EXPECT_EQ(device.num_blocks(), blocks_after_first);

  auto fetched = FetchValues(store, {0, 42, 255});
  ASSERT_TRUE(fetched.ok());
  for (size_t idx : {size_t{0}, size_t{42}, size_t{255}}) {
    EXPECT_DOUBLE_EQ(fetched.ValueOrDie().at(idx), second[idx]);
  }
}

TEST(WaveletStoreTest, FailedPutRetryDoesNotLeakBlocks) {
  const size_t n = 256;
  Rng rng(14);
  std::vector<double> coeffs = RandomSignal(n, &rng);

  // Reference: how many blocks one clean Put allocates.
  MemBlockDevice clean_device(64 * sizeof(double));
  WaveletStore clean_store(
      &clean_device, std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  ASSERT_TRUE(clean_store.Put(coeffs).ok());
  const size_t clean_blocks = clean_device.num_blocks();

  MemBlockDevice device(64 * sizeof(double));
  WaveletStore store(&device,
                     std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  // Fail partway through the first Put: some blocks are allocated and
  // written, then the store reports IoError.
  device.FailNextWrites(1);
  EXPECT_EQ(store.Put(coeffs).code(), StatusCode::kIoError);

  // The retry must reuse what the failed attempt allocated — the total
  // footprint ends identical to a clean single Put, and the data is whole.
  ASSERT_TRUE(store.Put(coeffs).ok());
  EXPECT_EQ(device.num_blocks(), clean_blocks);
  auto fetched = FetchValues(store, {0, 100, 255});
  ASSERT_TRUE(fetched.ok());
  EXPECT_DOUBLE_EQ(fetched.ValueOrDie().at(100), coeffs[100]);
}

TEST(WaveletStoreTest, ShortPayloadUnderAStoredChannelIsAnIoError) {
  const size_t n = 256;
  MemBlockDevice device(64 * sizeof(double));
  WaveletStore store(&device,
                     std::make_unique<SubtreeTilingAllocator>(n, 64), n);
  Rng rng(15);
  ASSERT_TRUE(store.Put(RandomSignal(n, &rng)).ok());
  const size_t logical = store.allocator().BlockOf(100);
  const BlockId id = store.device_blocks()[logical];
  // A cut-short page and a never-written (empty) one must both fail the
  // read instead of decoding past the payload's end.
  for (size_t bytes : {size_t{3}, size_t{0}}) {
    ASSERT_TRUE(device.Write(id, std::vector<uint8_t>(bytes, 0xab)).ok());
    EXPECT_EQ(FetchValues(store, {100}).status().code(),
              StatusCode::kIoError);
    EXPECT_EQ(store.FetchBlock(logical).status().code(), StatusCode::kIoError);
  }
}

TEST(RangeSumIoTest, TilingReducesBlocksForRangeSums) {
  // End-to-end: Haar range-sum coefficient sets against both allocators.
  const size_t n = 4096;
  const size_t block = 64;
  signal::HaarErrorTree tree(n);
  Rng rng(12);
  std::vector<std::vector<size_t>> queries;
  for (int q = 0; q < 100; ++q) {
    size_t a = static_cast<size_t>(rng.UniformInt(0, n - 1));
    size_t b = static_cast<size_t>(rng.UniformInt(0, n - 1));
    queries.push_back(tree.RangeSumSupport(std::min(a, b), std::max(a, b)));
  }
  SubtreeTilingAllocator tiling(n, block);
  RandomAllocator random(n, block, 3);
  double tiling_blocks =
      MeasureAccess(tiling, queries).mean_blocks_per_query;
  double random_blocks =
      MeasureAccess(random, queries).mean_blocks_per_query;
  EXPECT_LT(tiling_blocks, random_blocks);
}

}  // namespace
}  // namespace aims::storage
