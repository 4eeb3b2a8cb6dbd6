#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/allocation.h"
#include "storage/block_cache.h"
#include "storage/block_device.h"

/// \file wavelet_store.h
/// \brief Persists a wavelet-transformed series onto a BlockDevice under a
/// chosen coefficient-to-block allocation, and serves coefficient fetches
/// with block-granular I/O — the "wavelet BLOBs" of the AIMS prototype
/// (Sec. 4), except placed on raw blocks as the paper proposes instead of
/// inside a DBMS BLOB column.

namespace aims::storage {

/// \brief Which coefficient lives on which logical block: an allocator
/// plus its block -> indices table. Immutable once built, and a function
/// of the allocator alone, so every store of one shape shares one
/// instance — AimsSystem keeps one per padded channel length instead of
/// re-tiling the error tree for each stored channel.
class BlockLayout {
 public:
  /// \param allocator placement policy (owned).
  /// \param n coefficient count (power of two).
  BlockLayout(std::unique_ptr<CoefficientAllocator> allocator, size_t n);

  const CoefficientAllocator& allocator() const { return *allocator_; }
  size_t n() const { return n_; }
  size_t num_blocks() const { return offsets_.size() - 1; }
  /// Coefficient indices stored on \p block, ascending.
  std::span<const size_t> contents(size_t block) const {
    return {indices_.data() + offsets_[block],
            offsets_[block + 1] - offsets_[block]};
  }
  /// Coefficient count of the fullest block.
  size_t max_block_items() const { return max_block_items_; }

  /// \brief The bytes WaveletStore::Put writes for \p coefficients: one
  /// payload per block, the block's coefficients in contents() order, 8
  /// bytes each. Pure, so it can run before any device block exists.
  /// Requires coefficients.size() == n().
  std::vector<std::vector<uint8_t>> Encode(
      std::span<const double> coefficients) const;

 private:
  std::unique_ptr<CoefficientAllocator> allocator_;
  size_t n_;
  /// Block b holds indices_[offsets_[b], offsets_[b + 1]).
  std::vector<size_t> offsets_;
  std::vector<size_t> indices_;
  size_t max_block_items_ = 0;
};

/// \brief One stored coefficient vector, block-allocated on a device.
class WaveletStore {
 public:
  /// \param device shared block device (not owned).
  /// \param layout coefficient placement, possibly shared with other
  /// stores; every block must fit one device block.
  /// \param cache optional read-through block cache over \p device (not
  /// owned); when set, all block reads and writes route through it so
  /// repeated fetches of a hot block cost CPU instead of a simulated seek,
  /// and re-Put invalidates stale cached copies.
  WaveletStore(BlockDevice* device, std::shared_ptr<const BlockLayout> layout,
               BlockCache* cache = nullptr);

  /// \brief Attach ctor: adopts an already-written allocation instead of
  /// Put-ting fresh data — the recovery/reopen path of the durable
  /// backend. \p device_blocks maps logical block -> device block id,
  /// exactly as a previous instance's device_blocks() reported (one entry
  /// per layout block, all already populated on \p device). Fetches
  /// work immediately; a later Put overwrites the same blocks in place.
  WaveletStore(BlockDevice* device, std::shared_ptr<const BlockLayout> layout,
               BlockCache* cache, std::vector<BlockId> device_blocks);

  /// \brief A store with a layout of its own, built from \p allocator
  /// (owned) over \p n coefficients.
  WaveletStore(BlockDevice* device,
               std::unique_ptr<CoefficientAllocator> allocator, size_t n,
               BlockCache* cache = nullptr);

  /// Writes all coefficients to their blocks: BlockLayout::Encode, then
  /// PutPayloads.
  Status Put(const std::vector<double>& coefficients);

  /// Writes one already encoded payload per layout block, exactly what
  /// BlockLayout::Encode returns (anything else is a programmer error and
  /// aborts). Device blocks are allocated on first use and reused on later
  /// calls, so a re-Put (re-ingest of a session) or a retry after a
  /// mid-Put write fault overwrites in place instead of leaking the
  /// previous allocation.
  Status PutPayloads(const std::vector<std::vector<uint8_t>>& payloads);

  /// Reads one logical block (one device I/O when cold, none when cached)
  /// and returns its payload as values in contents() order: value k is
  /// coefficient layout()->contents(logical_block)[k]. The one block-read
  /// path: range queries merge-join it with a block's query coefficients,
  /// and a whole-channel read scatters it. \p cache_hit (optional) reports
  /// whether a configured cache served this call. IoError when the payload
  /// is not exactly the block's coefficients (a never-written or truncated
  /// page). Const: safe for concurrent readers once Put has completed (see
  /// BlockDevice's contract).
  Result<std::vector<double>> FetchBlock(size_t logical_block,
                                         bool* cache_hit = nullptr) const;

  /// Whether the logical block is currently resident in the configured
  /// cache (always false without one). Residency probe for EXPLAIN's
  /// cold-vs-cached prediction; does not perturb the cache's LRU order.
  bool IsBlockCached(size_t logical_block) const;

  const CoefficientAllocator& allocator() const {
    return layout_->allocator();
  }
  size_t n() const { return layout_->n(); }
  const std::shared_ptr<const BlockLayout>& layout() const { return layout_; }

  /// \brief Logical block -> device block id (empty before the first Put).
  /// The durable layer logs and checkpoints against device ids, and feeds
  /// this list back to the attach ctor on reopen.
  const std::vector<BlockId>& device_blocks() const { return device_blocks_; }

 private:
  /// Writes a device block, invalidating any cached copy first.
  Status WriteBlock(BlockId id, const std::vector<uint8_t>& payload);

  BlockDevice* device_;
  std::shared_ptr<const BlockLayout> layout_;
  BlockCache* cache_;
  /// Logical block -> device block id (assigned lazily by Put).
  std::vector<BlockId> device_blocks_;
  /// Prefix of device_blocks_ already backed by a device allocation; Put
  /// allocates only past this watermark, so retries reuse blocks.
  size_t num_allocated_ = 0;
  bool populated_ = false;
};

}  // namespace aims::storage
