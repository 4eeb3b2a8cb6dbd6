#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/block_device.h"

/// \file file_block_device.h
/// \brief The persistent BlockDevice backend: a page file of block-size
/// slots, each slot carrying a small header with the payload's CRC-32, the
/// block id it claims to be, and a write epoch. Reads verify the header
/// before returning bytes, so a torn write or media corruption surfaces as
/// IoError — never as silently wrong coefficients. Together with the
/// WriteAheadLog this is the durable half of the storage layer; the
/// in-memory MemBlockDevice remains the zero-setup simulator.
///
/// On-disk layout (host byte order — the page file is a local store, not a
/// wire format):
///
///   offset 0                superblock (64-byte reserved region)
///   offset 64 + i*slot      page slot i = 24-byte header + payload bytes
///
///   superblock: magic u32, version u32, block_size u64, epoch u64,
///               crc u32 (over the preceding 24 bytes), zero padding
///   page header: magic u32, block_id u32, epoch u64, payload_size u32,
///               crc u32 (CRC-32 of the payload bytes)
///
/// A slot whose header magic is zero (never written — allocation only
/// extends the file) reads back as an empty payload, matching
/// MemBlockDevice's allocated-but-unwritten semantics. Any other header
/// inconsistency (wrong magic, mismatched block id, impossible size, CRC
/// mismatch) is a detected torn/corrupt page and fails with IoError.
///
/// Concurrency matches the base contract: concurrent Reads are safe
/// (pread is positionless and the block count is atomic); Allocate/Write
/// require external exclusive synchronization.

namespace aims::storage::durable {

/// \brief File-backed block device with per-page checksums (see the file
/// comment for the layout).
class FileBlockDevice final : public BlockDevice {
 public:
  /// \brief Opens (creating if absent) the page file at \p path. An
  /// existing file must have been created with the same block size; its
  /// block count is recovered from the file length. Fails with IoError on
  /// filesystem errors and InvalidArgument on a layout mismatch.
  static Result<std::unique_ptr<FileBlockDevice>> Open(
      const std::string& path, size_t block_size_bytes,
      DiskCostModel cost_model = DiskCostModel{});

  ~FileBlockDevice() override;

  const char* backend_name() const override { return "file"; }
  size_t num_blocks() const override {
    return num_blocks_.load(std::memory_order_acquire);
  }
  const std::string& path() const { return path_; }

  /// \brief Forces every written page to stable storage (fsync) and
  /// persists the current write epoch in the superblock. The checkpoint
  /// step: once this returns, the WAL records that produced those pages
  /// are redundant and the log may drop them. Safe beside Reads, Writes
  /// and Allocate (a checkpoint runs it without the shard lock).
  Status SyncPages();

 protected:
  BlockId DoAllocate(size_t count) override;
  Status DoWrite(BlockId id, const std::vector<uint8_t>& payload,
                 uint32_t payload_crc) override;
  Result<std::vector<uint8_t>> DoRead(BlockId id) const override;

 private:
  FileBlockDevice(std::string path, int fd, size_t block_size_bytes,
                  DiskCostModel cost_model, size_t num_blocks, uint64_t epoch);

  /// Byte offset of slot \p id's header.
  uint64_t SlotOffset(BlockId id) const;
  /// Header + payload capacity of one slot.
  uint64_t SlotSize() const;
  /// Rewrites the superblock with the current epoch (no fsync).
  Status WriteSuperblock();

  std::string path_;
  int fd_ = -1;
  /// Allocated block count. Atomic so concurrent Reads can bounds-check
  /// against a racing Allocate without a lock (release on publish).
  std::atomic<size_t> num_blocks_{0};
  /// Monotonic write epoch stamped into each page header; diagnostic
  /// ordering information for post-mortems, not consulted by recovery.
  std::atomic<uint64_t> epoch_{1};
};

}  // namespace aims::storage::durable
