#pragma once

#include <memory>
#include <unordered_map>
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

/// \brief One stored coefficient vector, block-allocated on a device.
class WaveletStore {
 public:
  /// \param device shared block device (not owned).
  /// \param allocator placement policy (owned).
  /// \param n coefficient count (power of two).
  /// \param cache optional read-through block cache over \p device (not
  /// owned); when set, all block reads and writes route through it so
  /// repeated fetches of a hot block cost CPU instead of a simulated seek,
  /// and re-Put invalidates stale cached copies.
  WaveletStore(BlockDevice* device,
               std::unique_ptr<CoefficientAllocator> allocator, size_t n,
               BlockCache* cache = nullptr);

  /// \brief Attach ctor: adopts an already-written allocation instead of
  /// Put-ting fresh data — the recovery/reopen path of the durable
  /// backend. \p device_blocks maps logical block -> device block id,
  /// exactly as a previous instance's device_blocks() reported (one entry
  /// per allocator block, all already populated on \p device). Fetches
  /// work immediately; a later Put overwrites the same blocks in place.
  WaveletStore(BlockDevice* device,
               std::unique_ptr<CoefficientAllocator> allocator, size_t n,
               BlockCache* cache, std::vector<BlockId> device_blocks);

  /// Writes all coefficients to their blocks. Device blocks are allocated
  /// on first use and reused on later calls, so a re-Put (re-ingest of a
  /// session) or a retry after a mid-Put write fault overwrites in place
  /// instead of leaking the previous allocation.
  Status Put(const std::vector<double>& coefficients);

  /// Fetches the requested coefficients, reading each containing block
  /// exactly once. Returns index -> value. Const: safe for concurrent
  /// readers once Put has completed (see BlockDevice's contract).
  Result<std::unordered_map<size_t, double>> Fetch(
      const std::vector<size_t>& indices) const;

  /// Number of distinct blocks the given index set would touch.
  size_t BlocksNeeded(const std::vector<size_t>& indices) const;

  /// Logical blocks holding the given indices (deduplicated, ascending).
  std::vector<size_t> BlocksFor(const std::vector<size_t>& indices) const;

  /// Reads one logical block (one device I/O when cold, none when cached)
  /// and returns every (coefficient index, value) pair stored on it — the
  /// primitive for block-progressive query evaluation. \p cache_hit
  /// (optional) reports whether a configured cache served this call.
  Result<std::vector<std::pair<size_t, double>>> FetchBlock(
      size_t logical_block, bool* cache_hit = nullptr) const;

  /// Whether the logical block is currently resident in the configured
  /// cache (always false without one). Residency probe for EXPLAIN's
  /// cold-vs-cached prediction; does not perturb the cache's LRU order.
  bool IsBlockCached(size_t logical_block) const;

  const CoefficientAllocator& allocator() const { return *allocator_; }
  size_t n() const { return n_; }

  /// \brief Logical block -> device block id (empty before the first Put).
  /// The durable layer logs and checkpoints against device ids, and feeds
  /// this list back to the attach ctor on reopen.
  const std::vector<BlockId>& device_blocks() const { return device_blocks_; }

 private:
  /// Reads a logical block's device block through the cache when one is
  /// configured. IoError when the payload is not exactly the block's
  /// coefficients (a never-written or truncated page).
  Result<std::vector<uint8_t>> ReadBlock(size_t logical_block,
                                         bool* cache_hit = nullptr) const;
  /// Writes a device block, invalidating any cached copy first.
  Status WriteBlock(BlockId id, const std::vector<uint8_t>& payload);

  BlockDevice* device_;
  std::unique_ptr<CoefficientAllocator> allocator_;
  size_t n_;
  BlockCache* cache_;
  /// Logical block -> sorted coefficient indices living there.
  std::vector<std::vector<size_t>> block_contents_;
  /// Logical block -> device block id (assigned lazily by Put).
  std::vector<BlockId> device_blocks_;
  /// Prefix of device_blocks_ already backed by a device allocation; Put
  /// allocates only past this watermark, so retries reuse blocks.
  size_t num_allocated_ = 0;
  bool populated_ = false;
};

}  // namespace aims::storage
