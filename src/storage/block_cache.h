#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "obs/cache_stats.h"
#include "storage/block_device.h"

/// \file block_cache.h
/// \brief Sharded read-through LRU cache over a BlockDevice. The paper
/// measures query cost in blocks touched (Sec. 3.2.1) and the dominant
/// server workload is hot-working-set: many progressive queries refining
/// the same recent recordings, each re-reading the same wavelet blocks at
/// a full simulated seek apiece. The cache sits between the block
/// consumers (WaveletStore, BlockedCube, the relation representations) and
/// the device so a resident block costs CPU, not I/O.
///
/// Design:
///   * N mutex-guarded shards keyed by BlockId (id % N), so concurrent
///     readers on different blocks rarely contend on one lock;
///   * a byte budget split evenly across shards, enforced per shard with
///     LRU eviction (accounting actual payload bytes, not block capacity);
///   * flat shards: each shard keeps its entries in a slot vector linked
///     in LRU order by 32-bit indices, and finds them through an
///     open-addressing BlockId -> slot table (linear probing,
///     backward-shift deletion). Freed slots, and their payload buffers,
///     are reused, so a hit, a miss or an eviction allocates no node;
///   * write-through invalidation: Write forwards to the device and drops
///     any cached copy first, so the cache can never serve stale bytes —
///     re-ingest (WaveletStore re-Put) goes through this path;
///   * per-instance hit/miss/eviction/invalidation/bytes counters,
///     exported as obs::CacheStats (the aims_cache_* Prometheus family).
///
/// Concurrency contract: Read and Contains are safe from many threads at
/// once (shard mutexes + the device's concurrent-read contract). Write and
/// Invalidate mutate the device's block table and therefore inherit the
/// device's requirement of external exclusive synchronization against all
/// other calls — the server's per-shard writer locks provide exactly that,
/// which is what makes the invalidation correct: no reader can race a
/// block's overwrite.

namespace aims::storage {

/// \brief Sizing of one BlockCache.
struct BlockCacheConfig {
  /// Total payload-byte budget across all shards. 0 disables caching:
  /// every Read passes through to the device and nothing is retained
  /// (AimsSystem skips constructing a cache entirely in that case).
  size_t capacity_bytes = 0;
  /// Mutex-guarded shards; blocks map to shards by id modulo this count.
  /// Clamped to at least 1. Each shard's budget is capacity_bytes / N, so
  /// keep capacity well above num_shards * block_size or small shards will
  /// thrash.
  size_t num_shards = 8;
  /// Buffer-pool mode for the durable backend. When true, Write does NOT
  /// reach the device: the payload is admitted as a *dirty* entry (pinned
  /// against eviction and Clear — it is the only copy) and reaches the
  /// device only through FlushBlocks, after the owning transaction's WAL
  /// commit is durable. This is what makes the page file no-steal: an
  /// uncommitted page can never be on disk. Dirty admissions bypass the
  /// byte budget (clean entries are evicted first; the pool may run over
  /// budget until the next flush).
  bool write_back = false;
};

/// \brief Read-through LRU block cache (see file comment for the design
/// and the concurrency contract).
class BlockCache {
 public:
  /// \param device the backing device (not owned).
  BlockCache(BlockDevice* device, BlockCacheConfig config);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// \brief Returns the block's payload, from the cache when resident,
  /// otherwise from the device (charging its access cost) with the result
  /// admitted under the byte budget. \p hit (optional) reports whether
  /// this exact call was served from the cache — per-call truth, unlike a
  /// counter delta, which races under concurrency.
  Result<std::vector<uint8_t>> Read(BlockId id, bool* hit = nullptr) const;

  /// \brief Write-through (default): drops any cached copy of \p id, then
  /// forwards to the device. Invalidate-before-write means no stale entry
  /// can survive regardless of the device write's outcome. In write-back
  /// mode the payload is instead admitted as a dirty pinned entry and no
  /// device I/O happens (see BlockCacheConfig::write_back). Requires
  /// exclusive synchronization (the device's Write contract).
  Status Write(BlockId id, const std::vector<uint8_t>& payload);

  /// \brief Writes the listed blocks' dirty entries to the device and
  /// marks them clean (evictable again); blocks without a dirty entry are
  /// skipped. The commit-time write-back step: callers pass exactly the
  /// blocks their transaction staged, never "all dirty blocks" — flushing
  /// a stranger's uncommitted pages would break no-steal. Requires
  /// exclusive synchronization. Stops at the first device error, leaving
  /// the remaining entries dirty (the WAL still has them).
  Status FlushBlocks(const std::vector<BlockId>& ids);

  /// \brief Drops the listed blocks' dirty entries without writing them —
  /// the rollback of a failed staging. Clean entries are untouched.
  void DropDirty(const std::vector<BlockId>& ids);

  /// \brief Dirty (staged, unflushed) entries currently pinned.
  size_t DirtyBlocks() const;

  /// \brief Drops the cached copy of \p id, if any — including a dirty
  /// one (only DropDirty should do that to a dirty entry).
  void Invalidate(BlockId id);

  /// \brief Residency probe for planners (EXPLAIN predicts cold vs cached
  /// from this). Deliberately does NOT touch the LRU order: planning a
  /// query must not perturb what the cache retains.
  bool Contains(BlockId id) const;

  /// \brief Drops every *clean* entry (counters keep accumulating). Dirty
  /// entries survive: in write-back mode they are the only copy of staged
  /// data, so cooling the cache must not lose them.
  void Clear();

  /// \brief Snapshot of the accounting counters.
  obs::CacheStats Stats() const;

  size_t capacity_bytes() const { return config_.capacity_bytes; }
  size_t num_shards() const { return shards_.size(); }
  const BlockDevice* device() const { return device_; }
  BlockDevice* mutable_device() { return device_; }

 private:
  /// Null slot index: the end of a list, or an empty table entry.
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One cached block, or a free slot awaiting reuse.
  struct Slot {
    BlockId id = 0;
    /// Neighbours in the LRU list (prev toward the most recent end); a
    /// free slot chains the free list through next.
    uint32_t prev = kNil;
    uint32_t next = kNil;
    /// Staged by a write-back Write, not yet on the device. Dirty entries
    /// are pinned: never evicted, never dropped by Clear.
    bool dirty = false;
    std::vector<uint8_t> payload;
  };
  /// One entry of a shard's BlockId -> slot table (slot kNil = empty).
  struct IndexEntry {
    BlockId id = 0;
    uint32_t slot = kNil;
  };
  /// One shard: slots linked in LRU order (head = most recent) and the
  /// table that finds them. Every member requires the mutex.
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t free = kNil;
    /// Power-of-two size, at most half full.
    std::vector<IndexEntry> table;
    size_t live = 0;
    size_t bytes = 0;

    /// The slot holding \p id, or kNil.
    uint32_t Find(BlockId id) const;
    /// Links a fresh (or reused) slot for \p id at the head and indexes
    /// it; the caller fills the payload and the byte count.
    uint32_t Add(BlockId id);
    /// Unindexes and unlinks \p slot and puts it on the free list. The
    /// caller has taken its bytes off the count.
    void Remove(uint32_t slot);
    void MoveToFront(uint32_t slot);

   private:
    size_t Home(BlockId id) const;
    void Unlink(uint32_t slot);
    void PushFront(uint32_t slot);
    void TableInsert(BlockId id, uint32_t slot);
    void TableErase(BlockId id);
  };

  Shard& ShardFor(BlockId id) const {
    return shards_[static_cast<size_t>(id) % shards_.size()];
  }
  /// Inserts under the shard's lock, evicting clean LRU entries to the
  /// budget. Clean payloads larger than one shard's whole budget are not
  /// admitted; dirty ones always are (they have nowhere else to live).
  void InsertLocked(Shard& shard, BlockId id,
                    const std::vector<uint8_t>& payload, bool dirty) const;
  /// Evicts clean entries from the LRU tail until the shard fits its
  /// budget or only dirty entries remain.
  void EvictToBudgetLocked(Shard& shard) const;
  /// Drops \p slot's entry and its byte, block (and dirty) counts.
  void RemoveLocked(Shard& shard, uint32_t slot) const;

  BlockDevice* device_;
  BlockCacheConfig config_;
  size_t shard_capacity_bytes_;
  /// Shards are mutable because Read is const (like the device's atomic
  /// counters): caching is an accounting detail, not observable state.
  mutable std::vector<Shard> shards_;

  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
  mutable std::atomic<uint64_t> insertions_{0};
  mutable std::atomic<uint64_t> bytes_cached_{0};
  mutable std::atomic<uint64_t> blocks_cached_{0};
  mutable std::atomic<uint64_t> dirty_blocks_{0};
};

}  // namespace aims::storage
