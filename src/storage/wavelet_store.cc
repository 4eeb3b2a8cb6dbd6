#include "storage/wavelet_store.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <string>

#include "common/macros.h"

namespace aims::storage {

BlockLayout::BlockLayout(std::unique_ptr<CoefficientAllocator> allocator,
                         size_t n)
    : allocator_(std::move(allocator)), n_(n) {
  AIMS_CHECK(allocator_ != nullptr);
  // Counting sort by block: one pass sizes the blocks, one places the
  // indices (ascending within each block, as i ascends).
  const size_t num_blocks = allocator_->num_blocks();
  std::vector<size_t> block_of(n_);
  offsets_.assign(num_blocks + 1, 0);
  for (size_t i = 0; i < n_; ++i) {
    block_of[i] = allocator_->BlockOf(i);
    AIMS_CHECK(block_of[i] < num_blocks);
    ++offsets_[block_of[i] + 1];
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    max_block_items_ = std::max(max_block_items_, offsets_[b + 1]);
    offsets_[b + 1] += offsets_[b];
  }
  indices_.resize(n_);
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < n_; ++i) indices_[cursor[block_of[i]]++] = i;
}

WaveletStore::WaveletStore(BlockDevice* device,
                           std::shared_ptr<const BlockLayout> layout,
                           BlockCache* cache)
    : device_(device), layout_(std::move(layout)), cache_(cache) {
  AIMS_CHECK(device_ != nullptr && layout_ != nullptr);
  AIMS_CHECK(cache_ == nullptr || cache_->device() == device_);
  // Each block must fit the device: 8 bytes per coefficient.
  AIMS_CHECK(layout_->max_block_items() * sizeof(double) <=
             device_->block_size_bytes());
}

WaveletStore::WaveletStore(BlockDevice* device,
                           std::shared_ptr<const BlockLayout> layout,
                           BlockCache* cache,
                           std::vector<BlockId> device_blocks)
    : WaveletStore(device, std::move(layout), cache) {
  AIMS_CHECK(device_blocks.size() == layout_->num_blocks());
  device_blocks_ = std::move(device_blocks);
  num_allocated_ = device_blocks_.size();
  populated_ = true;
}

WaveletStore::WaveletStore(BlockDevice* device,
                           std::unique_ptr<CoefficientAllocator> allocator,
                           size_t n, BlockCache* cache)
    : WaveletStore(device,
                   std::make_shared<const BlockLayout>(std::move(allocator), n),
                   cache) {}

std::vector<std::vector<uint8_t>> BlockLayout::Encode(
    std::span<const double> coefficients) const {
  AIMS_CHECK(coefficients.size() == n_);
  std::vector<std::vector<uint8_t>> payloads(num_blocks());
  for (size_t b = 0; b < payloads.size(); ++b) {
    const std::span<const size_t> slots = contents(b);
    std::vector<uint8_t>& payload = payloads[b];
    payload.resize(slots.size() * sizeof(double));
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      std::memcpy(payload.data() + slot * sizeof(double),
                  &coefficients[slots[slot]], sizeof(double));
    }
  }
  return payloads;
}

Status WaveletStore::Put(const std::vector<double>& coefficients) {
  if (coefficients.size() != layout_->n()) {
    return Status::InvalidArgument("WaveletStore::Put: size mismatch");
  }
  return PutPayloads(layout_->Encode(coefficients));
}

Status WaveletStore::PutPayloads(
    const std::vector<std::vector<uint8_t>>& payloads) {
  const size_t num_blocks = layout_->num_blocks();
  AIMS_CHECK(payloads.size() == num_blocks);
  device_blocks_.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    AIMS_CHECK(payloads[b].size() ==
               layout_->contents(b).size() * sizeof(double));
    // Allocate lazily and record the allocation before attempting the
    // write: if the write faults, the retry finds the block already
    // allocated and reuses it instead of leaking it. A re-Put likewise
    // overwrites the existing blocks rather than growing the device.
    if (b >= num_allocated_) {
      device_blocks_[b] = device_->Allocate();
      num_allocated_ = b + 1;
    }
    AIMS_RETURN_NOT_OK(WriteBlock(device_blocks_[b], payloads[b]));
  }
  populated_ = true;
  return Status::OK();
}

Result<std::unordered_map<size_t, double>> WaveletStore::Fetch(
    const std::vector<size_t>& indices) const {
  if (!populated_) {
    return Status::FailedPrecondition("WaveletStore::Fetch before Put");
  }
  std::set<size_t> blocks;
  for (size_t idx : indices) {
    if (idx >= layout_->n()) {
      return Status::OutOfRange("WaveletStore::Fetch: index out of range");
    }
    blocks.insert(allocator().BlockOf(idx));
  }
  std::set<size_t> wanted(indices.begin(), indices.end());
  std::unordered_map<size_t, double> out;
  for (size_t b : blocks) {
    AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, ReadBlock(b));
    const std::span<const size_t> contents = layout_->contents(b);
    for (size_t slot = 0; slot < contents.size(); ++slot) {
      size_t idx = contents[slot];
      if (wanted.count(idx)) {
        double v = 0.0;
        std::memcpy(&v, payload.data() + slot * sizeof(double),
                    sizeof(double));
        out[idx] = v;
      }
    }
  }
  return out;
}

Result<std::vector<double>> WaveletStore::FetchBlock(size_t logical_block,
                                                     bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  if (!populated_) {
    return Status::FailedPrecondition("WaveletStore::FetchBlock before Put");
  }
  if (logical_block >= layout_->num_blocks()) {
    return Status::OutOfRange("WaveletStore::FetchBlock: no such block");
  }
  AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                        ReadBlock(logical_block, cache_hit));
  // ReadBlock checked the size: one double per slot.
  std::vector<double> values(payload.size() / sizeof(double));
  if (!values.empty()) {
    std::memcpy(values.data(), payload.data(), payload.size());
  }
  return values;
}

bool WaveletStore::IsBlockCached(size_t logical_block) const {
  if (cache_ == nullptr || !populated_ ||
      logical_block >= layout_->num_blocks()) {
    return false;
  }
  return cache_->Contains(device_blocks_[logical_block]);
}

Result<std::vector<uint8_t>> WaveletStore::ReadBlock(size_t logical_block,
                                                     bool* cache_hit) const {
  const BlockId id = device_blocks_[logical_block];
  if (cache_hit != nullptr) *cache_hit = false;
  AIMS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      cache_ != nullptr ? cache_->Read(id, cache_hit) : device_->Read(id));
  // A never-written or cut-short page reads back short; decoding it would
  // read past the payload's end.
  const size_t expected =
      layout_->contents(logical_block).size() * sizeof(double);
  if (payload.size() != expected) {
    return Status::IoError("WaveletStore: device block " + std::to_string(id) +
                           " holds " + std::to_string(payload.size()) +
                           " bytes, expected " + std::to_string(expected));
  }
  return payload;
}

Status WaveletStore::WriteBlock(BlockId id,
                                const std::vector<uint8_t>& payload) {
  if (cache_ != nullptr) return cache_->Write(id, payload);
  return device_->Write(id, payload);
}

}  // namespace aims::storage
