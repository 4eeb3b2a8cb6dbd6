#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

/// \file block_device.h
/// \brief Block storage with I/O accounting, behind an abstract interface.
/// The storage experiments (Sec. 3.2.1) are about *which coefficients
/// co-reside on a block* and *how many blocks a query touches* — both
/// backends count block accesses identically and charge the same seek-cost
/// model, so planners, the cost ledger, and EXPLAIN/ANALYZE reconciliation
/// work unchanged whether blocks live in memory (MemBlockDevice, the
/// original simulator) or in a checksummed page file
/// (durable::FileBlockDevice).
///
/// Concurrency contract: Read is const and safe to call from many threads
/// at once (the counters are atomic); Allocate and Write mutate the block
/// table and require external exclusive synchronization against all other
/// calls. The server layer enforces this with per-shard reader/writer
/// locks.

namespace aims::storage {

/// \brief Identifier of one disk block.
using BlockId = uint32_t;

/// \brief Cost model: seek+rotational delay per random block access plus a
/// per-byte transfer term (defaults approximate a 2003-era disk).
struct DiskCostModel {
  double seek_ms = 8.0;
  double transfer_ms_per_kb = 0.02;
  /// When true the device *sleeps* for the modeled duration on every Read
  /// and Write instead of only accounting it. This turns the cost model
  /// into real wall-clock latency so concurrency experiments (bench_server)
  /// can measure how well a configuration overlaps I/O waits — the only
  /// source of shard-scaling speedup on a single-core host.
  bool simulate_io_wait = false;

  /// \brief Modeled cost of one access to a block of \p block_size_bytes —
  /// the exact formula the device charges per Read/Write, exposed so
  /// planners (EXPLAIN) can predict a query's I/O cost without touching
  /// the device: predicted_io_ms = blocks * AccessCostMs(block_size).
  double AccessCostMs(size_t block_size_bytes) const {
    return seek_ms +
           transfer_ms_per_kb * static_cast<double>(block_size_bytes) / 1024.0;
  }
};

/// \brief Abstract fixed-block device with read/write counters, fault
/// injection, and corruption injection. Backends implement DoAllocate /
/// DoWrite / DoRead; the base class owns the accounting so every backend
/// charges I/O identically (the invariant the cost ledger and
/// EXPLAIN/ANALYZE reconciliation depend on).
class BlockDevice {
 public:
  /// \param block_size_bytes capacity of each block.
  explicit BlockDevice(size_t block_size_bytes,
                       DiskCostModel cost_model = DiskCostModel{});
  virtual ~BlockDevice() = default;

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Backend name for diagnostics ("mem", "file").
  virtual const char* backend_name() const = 0;

  size_t block_size_bytes() const { return block_size_bytes_; }
  virtual size_t num_blocks() const = 0;

  /// Allocates \p count (at least 1) fresh blocks with consecutive ids;
  /// returns the first. Requires exclusive access.
  BlockId Allocate(size_t count = 1);

  /// Overwrites a block's payload (must fit the block size). Requires
  /// exclusive access.
  Status Write(BlockId id, const std::vector<uint8_t>& payload);

  /// Reads a block, bumping the read counter. Safe to call concurrently
  /// with other Reads (but not with Allocate/Write). Fails with IoError
  /// when the stored payload's checksum no longer matches (bit rot, torn
  /// write) — corruption is *detected*, never returned as wrong data.
  Result<std::vector<uint8_t>> Read(BlockId id) const;

  /// I/O counters since the last ResetCounters.
  size_t reads() const { return reads_.load(std::memory_order_relaxed); }
  size_t writes() const { return writes_.load(std::memory_order_relaxed); }
  /// Simulated elapsed I/O time under the cost model.
  double simulated_ms() const {
    return simulated_ms_.load(std::memory_order_relaxed);
  }

  /// Zeroes the I/O counters AND clears any still-pending injected faults
  /// or corruptions, so a reset device is a clean device: faults armed by
  /// one test/bench phase can never leak into the next.
  void ResetCounters();

  /// \brief Fault injection: the next \p count Read calls fail with
  /// IoError (after bumping the read counter and charging the access cost,
  /// like a real failed seek).
  /// Used by the failure-path tests to verify that every layer above the
  /// device propagates storage errors instead of crashing or mis-answering.
  void FailNextReads(size_t count) {
    fail_reads_.store(count, std::memory_order_relaxed);
  }
  /// Fault injection for writes, analogous to FailNextReads.
  void FailNextWrites(size_t count) {
    fail_writes_.store(count, std::memory_order_relaxed);
  }
  /// \brief Corruption injection: the next \p count Write calls store a
  /// bit-flipped payload under the *original* payload's checksum —
  /// simulated media rot. The write itself reports success (the disk
  /// doesn't know); a later Read of the block detects the mismatch and
  /// fails with IoError. Works identically on every backend, so the
  /// checksum-detection paths are exercised uniformly.
  void CorruptNextWrites(size_t count) {
    corrupt_writes_.store(count, std::memory_order_relaxed);
  }

 protected:
  /// Accounts one block access; sleeps when the model simulates waits.
  void ChargeAccess() const;
  const DiskCostModel& cost_model() const { return cost_model_; }

  /// Extends the device by \p count >= 1 blocks; returns the first id.
  virtual BlockId DoAllocate(size_t count) = 0;
  /// \p payload may be a corrupted copy when corruption injection fired;
  /// \p payload_crc is always the CRC-32 of the payload the caller wrote,
  /// so backends store the checksum a clean write would have stored.
  virtual Status DoWrite(BlockId id, const std::vector<uint8_t>& payload,
                         uint32_t payload_crc) = 0;
  virtual Result<std::vector<uint8_t>> DoRead(BlockId id) const = 0;

 private:
  /// Atomically consumes one pending injected fault, if any.
  static bool ConsumeFault(std::atomic<size_t>* pending);

  size_t block_size_bytes_;
  DiskCostModel cost_model_;
  mutable std::atomic<size_t> reads_{0};
  mutable std::atomic<size_t> writes_{0};
  mutable std::atomic<size_t> fail_reads_{0};
  mutable std::atomic<size_t> fail_writes_{0};
  mutable std::atomic<size_t> corrupt_writes_{0};
  mutable std::atomic<double> simulated_ms_{0.0};
};

/// \brief The in-memory simulated device (the original backend): blocks
/// are vectors, persistence is none, and the only I/O cost is the modeled
/// one. Stores a checksum next to each payload so injected corruption is
/// detected exactly the way the file backend detects it.
class MemBlockDevice : public BlockDevice {
 public:
  explicit MemBlockDevice(size_t block_size_bytes,
                          DiskCostModel cost_model = DiskCostModel{});

  const char* backend_name() const override { return "mem"; }
  size_t num_blocks() const override { return blocks_.size(); }

 protected:
  BlockId DoAllocate(size_t count) override;
  Status DoWrite(BlockId id, const std::vector<uint8_t>& payload,
                 uint32_t payload_crc) override;
  Result<std::vector<uint8_t>> DoRead(BlockId id) const override;

 private:
  struct Block {
    std::vector<uint8_t> payload;
    uint32_t crc = 0;  ///< CRC-32 of the payload as written (empty -> 0).
  };
  std::vector<Block> blocks_;
};

}  // namespace aims::storage
