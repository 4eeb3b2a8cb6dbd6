#include "storage/block_device.h"

#include <chrono>
#include <thread>

#include "common/crc32.h"
#include "common/macros.h"

namespace aims::storage {

BlockDevice::BlockDevice(size_t block_size_bytes, DiskCostModel cost_model)
    : block_size_bytes_(block_size_bytes), cost_model_(cost_model) {
  AIMS_CHECK(block_size_bytes > 0);
}

void BlockDevice::ChargeAccess() const {
  double cost_ms = cost_model_.AccessCostMs(block_size_bytes_);
  // atomic<double>::fetch_add is C++20; relaxed is enough for a statistic.
  simulated_ms_.fetch_add(cost_ms, std::memory_order_relaxed);
  if (cost_model_.simulate_io_wait) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(cost_ms));
  }
}

bool BlockDevice::ConsumeFault(std::atomic<size_t>* pending) {
  size_t expected = pending->load(std::memory_order_relaxed);
  while (expected > 0) {
    if (pending->compare_exchange_weak(expected, expected - 1,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

BlockId BlockDevice::Allocate(size_t count) {
  AIMS_CHECK(count >= 1);
  return DoAllocate(count);
}

Status BlockDevice::Write(BlockId id, const std::vector<uint8_t>& payload) {
  if (id >= num_blocks()) {
    return Status::OutOfRange("BlockDevice::Write: no such block");
  }
  if (payload.size() > block_size_bytes_) {
    return Status::InvalidArgument("BlockDevice::Write: payload exceeds block");
  }
  if (ConsumeFault(&fail_writes_)) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    // A failed write still seeks and spins: charge it (and wait, under
    // simulate_io_wait) so simulated_ms stays reconciled with the counters.
    ChargeAccess();
    return Status::IoError("BlockDevice::Write: injected fault");
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  ChargeAccess();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (ConsumeFault(&corrupt_writes_) && !payload.empty()) {
    // Media rot: the stored bytes differ from what was checksummed. The
    // write reports success; only a later read can notice.
    std::vector<uint8_t> corrupted = payload;
    corrupted[corrupted.size() / 2] ^= 0x04;
    return DoWrite(id, corrupted, crc);
  }
  return DoWrite(id, payload, crc);
}

Result<std::vector<uint8_t>> BlockDevice::Read(BlockId id) const {
  if (id >= num_blocks()) {
    return Status::OutOfRange("BlockDevice::Read: no such block");
  }
  if (ConsumeFault(&fail_reads_)) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    // A failed read costs a full access too — the seek happened even if
    // the transfer did not come back.
    ChargeAccess();
    return Status::IoError("BlockDevice::Read: injected fault");
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  ChargeAccess();
  return DoRead(id);
}

void BlockDevice::ResetCounters() {
  reads_.store(0, std::memory_order_relaxed);
  writes_.store(0, std::memory_order_relaxed);
  simulated_ms_.store(0.0, std::memory_order_relaxed);
  // A reset device is a clean device: pending injected faults must not
  // leak into the next test or bench phase.
  fail_reads_.store(0, std::memory_order_relaxed);
  fail_writes_.store(0, std::memory_order_relaxed);
  corrupt_writes_.store(0, std::memory_order_relaxed);
}

MemBlockDevice::MemBlockDevice(size_t block_size_bytes,
                               DiskCostModel cost_model)
    : BlockDevice(block_size_bytes, cost_model) {}

BlockId MemBlockDevice::DoAllocate(size_t count) {
  const size_t first = blocks_.size();
  blocks_.resize(first + count);
  return static_cast<BlockId>(first);
}

Status MemBlockDevice::DoWrite(BlockId id, const std::vector<uint8_t>& payload,
                               uint32_t payload_crc) {
  blocks_[id] = Block{payload, payload_crc};
  return Status::OK();
}

Result<std::vector<uint8_t>> MemBlockDevice::DoRead(BlockId id) const {
  const Block& block = blocks_[id];
  if (!block.payload.empty() &&
      Crc32(block.payload.data(), block.payload.size()) != block.crc) {
    return Status::IoError("MemBlockDevice::Read: checksum mismatch");
  }
  return block.payload;
}

}  // namespace aims::storage
