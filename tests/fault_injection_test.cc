// Failure injection: storage faults must surface as clean IoError statuses
// through every layer — WaveletStore, BlockedCube, the AimsSystem facade —
// never as crashes, silent wrong answers, or corrupted state.

#include <unistd.h>

#include <chrono>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aims.h"
#include "propolyne/block_propolyne.h"
#include "storage/allocation.h"
#include "storage/block_device.h"
#include "storage/file_block_device.h"
#include "storage/wavelet_store.h"
#include "synth/cyberglove.h"
#include "synth/olap_data.h"
#include "test_util.h"

namespace aims {
namespace {

TEST(FaultInjection, DeviceReadFaultSurfacesAsIoError) {
  storage::MemBlockDevice device(64);
  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, {1, 2, 3}).ok());
  device.FailNextReads(1);
  auto first = device.Read(id);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kIoError);
  // The fault is transient: the next read succeeds.
  auto second = device.Read(id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(FaultInjection, DeviceWriteFaultSurfacesAsIoError) {
  storage::MemBlockDevice device(64);
  storage::BlockId id = device.Allocate();
  device.FailNextWrites(1);
  EXPECT_EQ(device.Write(id, {9}).code(), StatusCode::kIoError);
  EXPECT_TRUE(device.Write(id, {9}).ok());
}

TEST(FaultAccounting, FailedAccessesChargeSimulatedCost) {
  storage::DiskCostModel model;
  model.seek_ms = 8.0;
  model.transfer_ms_per_kb = 0.0;
  storage::MemBlockDevice device(64, model);
  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, {1}).ok());
  EXPECT_DOUBLE_EQ(device.simulated_ms(), 8.0);

  // Regression: injected faults used to return before ChargeAccess(), so a
  // failed read was free and simulated_ms disagreed with reads()+writes().
  device.FailNextReads(1);
  EXPECT_FALSE(device.Read(id).ok());
  EXPECT_EQ(device.reads(), 1u);
  EXPECT_DOUBLE_EQ(device.simulated_ms(), 16.0);

  device.FailNextWrites(1);
  EXPECT_FALSE(device.Write(id, {2}).ok());
  EXPECT_EQ(device.writes(), 2u);
  EXPECT_DOUBLE_EQ(device.simulated_ms(), 24.0);
  // The invariant the fix restores: every counted access was charged.
  double per_access = model.AccessCostMs(device.block_size_bytes());
  EXPECT_DOUBLE_EQ(device.simulated_ms(),
                   static_cast<double>(device.reads() + device.writes()) *
                       per_access);
}

TEST(FaultAccounting, FailedReadWaitsUnderSimulatedIo) {
  storage::DiskCostModel model;
  model.seek_ms = 20.0;
  model.transfer_ms_per_kb = 0.0;
  model.simulate_io_wait = true;
  storage::MemBlockDevice device(64, model);
  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, {1}).ok());
  device.FailNextReads(1);
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(device.Read(id).ok());
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  // A failed seek still takes the seek's wall-clock time (generous margin
  // for scheduler jitter).
  EXPECT_GE(elapsed_ms, 15.0);
}

TEST(FaultInjection, WaveletStorePropagatesFetchFaults) {
  const size_t n = 256;
  storage::MemBlockDevice device(64 * sizeof(double));
  storage::WaveletStore store(
      &device, std::make_unique<storage::SubtreeTilingAllocator>(n, 64), n);
  Rng rng(1);
  ASSERT_TRUE(store.Put(testutil::RandomSignal(n, &rng)).ok());
  const size_t block = store.allocator().BlockOf(200);
  device.FailNextReads(1);
  auto fetched = store.FetchBlock(block);
  EXPECT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);
  // Recovery: the same fetch works once the fault clears.
  EXPECT_TRUE(store.FetchBlock(block).ok());
}

TEST(FaultInjection, WaveletStorePutFaultLeavesStatusClean) {
  const size_t n = 64;
  storage::MemBlockDevice device(64 * sizeof(double));
  storage::WaveletStore store(
      &device, std::make_unique<storage::SubtreeTilingAllocator>(n, 16), n);
  device.FailNextWrites(1);
  EXPECT_EQ(store.Put(std::vector<double>(n, 1.0)).code(),
            StatusCode::kIoError);
}

TEST(FaultInjection, BlockedCubePropagatesProgressiveFaults) {
  Rng rng(2);
  synth::GridDataset field = synth::MakeSmoothField({32, 32}, 4, &rng);
  propolyne::CubeSchema schema{{"x", "y"}, field.shape};
  auto cube = propolyne::DataCube::FromDense(
      schema, signal::WaveletFilter::Make(signal::WaveletKind::kDb2),
      field.values);
  ASSERT_TRUE(cube.ok());
  storage::MemBlockDevice device(64 * sizeof(double));
  auto blocked =
      propolyne::BlockedCube::Make(&cube.ValueOrDie(), &device, {8, 8});
  ASSERT_TRUE(blocked.ok());
  device.FailNextReads(1);
  auto result = blocked.ValueOrDie().EvaluateProgressive(
      propolyne::RangeSumQuery::Count({3, 3}, {28, 28}));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  // The evaluation aborts on the first failed block; once the fault is
  // consumed, the same query succeeds.
  auto retry = blocked.ValueOrDie().EvaluateProgressive(
      propolyne::RangeSumQuery::Count({3, 3}, {28, 28}));
  EXPECT_TRUE(retry.ok());
}

TEST(FaultInjection, FacadeQueriesPropagateFaults) {
  core::AimsSystem system;
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), 3);
  synth::SubjectProfile subject = sim.MakeSubject();
  auto id = system.IngestRecording(
      "faulty", sim.GenerateSign(12, subject).ValueOrDie());
  ASSERT_TRUE(id.ok());
  system.mutable_device()->FailNextReads(1);
  auto stats = system.QueryRange(id.ValueOrDie(), 0, 5, 50);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  // The store is intact: retry succeeds and matches a clean query.
  auto retry = system.QueryRange(id.ValueOrDie(), 0, 5, 50);
  ASSERT_TRUE(retry.ok());
  system.mutable_device()->FailNextReads(1);
  EXPECT_FALSE(system.ReadChannel(id.ValueOrDie(), 0).ok());
  auto clean = system.ReadChannel(id.ValueOrDie(), 0);
  EXPECT_TRUE(clean.ok());
}

TEST(FaultInjection, ResetCountersClearsPendingFaults) {
  // Regression: ResetCounters used to zero only the I/O counters, leaving
  // armed-but-unconsumed faults to fire in whatever ran next (a bench
  // phase, an unrelated test sharing the device).
  storage::MemBlockDevice device(64);
  storage::BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, {1, 2, 3}).ok());
  device.FailNextReads(5);
  device.FailNextWrites(5);
  device.CorruptNextWrites(5);
  device.ResetCounters();
  EXPECT_EQ(device.reads(), 0u);
  EXPECT_EQ(device.writes(), 0u);
  // No leftover fault or corruption fires: clean write, clean read-back.
  ASSERT_TRUE(device.Write(id, {4, 5, 6}).ok());
  auto read = device.Read(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie(), (std::vector<uint8_t>{4, 5, 6}));
}

/// CorruptNextWrites contract, identical on every backend: the write
/// "succeeds" (the disk doesn't know it rotted), the next read DETECTS the
/// mismatch as IoError, and a clean rewrite fully repairs the block.
void ExerciseCorruptionInjection(storage::BlockDevice* device) {
  storage::BlockId id = device->Allocate();
  ASSERT_TRUE(device->Write(id, {10, 20, 30, 40}).ok());
  device->CorruptNextWrites(1);
  ASSERT_TRUE(device->Write(id, {1, 2, 3, 4}).ok());
  auto read = device->Read(id);
  ASSERT_FALSE(read.ok()) << device->backend_name()
                          << ": corrupted payload returned as data";
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  // The injection was one-shot; a clean rewrite restores the block.
  ASSERT_TRUE(device->Write(id, {1, 2, 3, 4}).ok());
  auto repaired = device->Read(id);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.ValueOrDie(), (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST(FaultInjection, CorruptNextWritesDetectedOnMemBackend) {
  storage::MemBlockDevice device(64);
  ExerciseCorruptionInjection(&device);
}

TEST(FaultInjection, CorruptNextWritesDetectedOnFileBackend) {
  std::string dir = ::testing::TempDir() + "aims_fault_file_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto opened =
      storage::durable::FileBlockDevice::Open(dir + "/pages.aims", 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExerciseCorruptionInjection(opened.ValueOrDie().get());
}

TEST(FaultInjection, IngestSurvivesWriteFaultWithCleanError) {
  core::AimsSystem system;
  synth::CyberGloveSimulator sim(synth::DefaultAslVocabulary(), 4);
  synth::SubjectProfile subject = sim.MakeSubject();
  streams::Recording rec = sim.GenerateSign(12, subject).ValueOrDie();
  system.mutable_device()->FailNextWrites(1);
  auto id = system.IngestRecording("will-fail", rec);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kIoError);
  // The system remains usable: a clean ingest afterwards works fully.
  auto retry = system.IngestRecording("ok", rec);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(system.ReadChannel(retry.ValueOrDie(), 0).ok());
}

}  // namespace
}  // namespace aims
