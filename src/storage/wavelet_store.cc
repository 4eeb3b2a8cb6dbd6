#include "storage/wavelet_store.h"

#include <cstring>
#include <set>
#include <string>

#include "common/macros.h"

namespace aims::storage {

WaveletStore::WaveletStore(BlockDevice* device,
                           std::unique_ptr<CoefficientAllocator> allocator,
                           size_t n, BlockCache* cache)
    : device_(device), allocator_(std::move(allocator)), n_(n), cache_(cache) {
  AIMS_CHECK(device_ != nullptr);
  AIMS_CHECK(cache_ == nullptr || cache_->device() == device_);
  block_contents_.resize(allocator_->num_blocks());
  for (size_t i = 0; i < n_; ++i) {
    size_t b = allocator_->BlockOf(i);
    AIMS_CHECK(b < block_contents_.size());
    block_contents_[b].push_back(i);
  }
  // Each block must fit the device: 8 bytes per coefficient.
  for (const auto& contents : block_contents_) {
    AIMS_CHECK(contents.size() * sizeof(double) <= device_->block_size_bytes());
  }
}

WaveletStore::WaveletStore(BlockDevice* device,
                           std::unique_ptr<CoefficientAllocator> allocator,
                           size_t n, BlockCache* cache,
                           std::vector<BlockId> device_blocks)
    : WaveletStore(device, std::move(allocator), n, cache) {
  AIMS_CHECK(device_blocks.size() == block_contents_.size());
  device_blocks_ = std::move(device_blocks);
  num_allocated_ = device_blocks_.size();
  populated_ = true;
}

Status WaveletStore::Put(const std::vector<double>& coefficients) {
  if (coefficients.size() != n_) {
    return Status::InvalidArgument("WaveletStore::Put: size mismatch");
  }
  device_blocks_.resize(block_contents_.size());
  for (size_t b = 0; b < block_contents_.size(); ++b) {
    std::vector<uint8_t> payload(block_contents_[b].size() * sizeof(double));
    for (size_t slot = 0; slot < block_contents_[b].size(); ++slot) {
      double v = coefficients[block_contents_[b][slot]];
      std::memcpy(payload.data() + slot * sizeof(double), &v, sizeof(double));
    }
    // Allocate lazily and record the allocation before attempting the
    // write: if the write faults, the retry finds the block already
    // allocated and reuses it instead of orphaning it. A re-Put likewise
    // overwrites the existing blocks rather than growing the device.
    if (b >= num_allocated_) {
      device_blocks_[b] = device_->Allocate();
      num_allocated_ = b + 1;
    }
    AIMS_RETURN_NOT_OK(WriteBlock(device_blocks_[b], payload));
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
    if (idx >= n_) {
      return Status::OutOfRange("WaveletStore::Fetch: index out of range");
    }
    blocks.insert(allocator_->BlockOf(idx));
  }
  std::set<size_t> wanted(indices.begin(), indices.end());
  std::unordered_map<size_t, double> out;
  for (size_t b : blocks) {
    AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, ReadBlock(b));
    for (size_t slot = 0; slot < block_contents_[b].size(); ++slot) {
      size_t idx = block_contents_[b][slot];
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

size_t WaveletStore::BlocksNeeded(const std::vector<size_t>& indices) const {
  std::set<size_t> blocks;
  for (size_t idx : indices) blocks.insert(allocator_->BlockOf(idx));
  return blocks.size();
}

std::vector<size_t> WaveletStore::BlocksFor(
    const std::vector<size_t>& indices) const {
  std::set<size_t> blocks;
  for (size_t idx : indices) blocks.insert(allocator_->BlockOf(idx));
  return {blocks.begin(), blocks.end()};
}

Result<std::vector<std::pair<size_t, double>>> WaveletStore::FetchBlock(
    size_t logical_block, bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  if (!populated_) {
    return Status::FailedPrecondition("WaveletStore::FetchBlock before Put");
  }
  if (logical_block >= block_contents_.size()) {
    return Status::OutOfRange("WaveletStore::FetchBlock: no such block");
  }
  AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                        ReadBlock(logical_block, cache_hit));
  std::vector<std::pair<size_t, double>> out;
  const std::vector<size_t>& contents = block_contents_[logical_block];
  out.reserve(contents.size());
  for (size_t slot = 0; slot < contents.size(); ++slot) {
    double v = 0.0;
    std::memcpy(&v, payload.data() + slot * sizeof(double), sizeof(double));
    out.emplace_back(contents[slot], v);
  }
  return out;
}

bool WaveletStore::IsBlockCached(size_t logical_block) const {
  if (cache_ == nullptr || !populated_ ||
      logical_block >= block_contents_.size()) {
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
      block_contents_[logical_block].size() * sizeof(double);
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
