#include "storage/block_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <list>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/rng.h"
#include "storage/block_device.h"

namespace aims::storage {
namespace {

std::vector<uint8_t> Payload(uint8_t seed, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i);
  return out;
}

/// The list + map LRU cache BlockCache's flat shards replaced, kept as the
/// reference its replacement policy, counters and dirty pinning must match
/// bit for bit: a std::list per shard (front = most recent) indexed by a
/// std::unordered_map of iterators.
class ListMapCache {
 public:
  ListMapCache(BlockDevice* device, BlockCacheConfig config)
      : device_(device),
        config_(config),
        shard_capacity_bytes_(config.capacity_bytes /
                              std::max<size_t>(config.num_shards, 1)),
        shards_(std::max<size_t>(config.num_shards, 1)) {}

  Result<std::vector<uint8_t>> Read(BlockId id, bool* hit) {
    Shard& shard = ShardFor(id);
    auto it = shard.index.find(id);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++stats_.hits;
      *hit = true;
      return it->second->payload;
    }
    ++stats_.misses;
    *hit = false;
    AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, device_->Read(id));
    if (shard.index.find(id) == shard.index.end()) {
      InsertLocked(shard, id, payload, /*dirty=*/false);
    }
    return payload;
  }

  Status Write(BlockId id, const std::vector<uint8_t>& payload) {
    if (config_.write_back) {
      Shard& shard = ShardFor(id);
      auto it = shard.index.find(id);
      if (it != shard.index.end()) {
        Entry& entry = *it->second;
        shard.bytes -= entry.payload.size();
        stats_.bytes_cached -= entry.payload.size();
        if (!entry.dirty) ++dirty_;
        entry.payload = payload;
        entry.dirty = true;
        shard.bytes += payload.size();
        stats_.bytes_cached += payload.size();
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        EvictToBudgetLocked(shard);
      } else {
        InsertLocked(shard, id, payload, /*dirty=*/true);
      }
      return Status::OK();
    }
    Invalidate(id);
    return device_->Write(id, payload);
  }

  Status FlushBlocks(const std::vector<BlockId>& ids) {
    for (BlockId id : ids) {
      Shard& shard = ShardFor(id);
      auto it = shard.index.find(id);
      if (it == shard.index.end() || !it->second->dirty) continue;
      AIMS_RETURN_NOT_OK(device_->Write(id, it->second->payload));
      it->second->dirty = false;
      --dirty_;
      EvictToBudgetLocked(shard);
    }
    return Status::OK();
  }

  void DropDirty(const std::vector<BlockId>& ids) {
    for (BlockId id : ids) {
      Shard& shard = ShardFor(id);
      auto it = shard.index.find(id);
      if (it == shard.index.end() || !it->second->dirty) continue;
      shard.bytes -= it->second->payload.size();
      stats_.bytes_cached -= it->second->payload.size();
      --stats_.blocks_cached;
      --dirty_;
      ++stats_.invalidations;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
  }

  void Invalidate(BlockId id) {
    Shard& shard = ShardFor(id);
    auto it = shard.index.find(id);
    if (it == shard.index.end()) return;
    shard.bytes -= it->second->payload.size();
    stats_.bytes_cached -= it->second->payload.size();
    --stats_.blocks_cached;
    if (it->second->dirty) --dirty_;
    ++stats_.invalidations;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }

  bool Contains(BlockId id) {
    Shard& shard = ShardFor(id);
    return shard.index.find(id) != shard.index.end();
  }

  void Clear() {
    for (Shard& shard : shards_) {
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->dirty) {
          ++it;
          continue;
        }
        shard.bytes -= it->payload.size();
        stats_.bytes_cached -= it->payload.size();
        --stats_.blocks_cached;
        shard.index.erase(it->id);
        it = shard.lru.erase(it);
      }
    }
  }

  obs::CacheStats Stats() const {
    obs::CacheStats stats = stats_;
    stats.capacity_bytes = config_.capacity_bytes;
    return stats;
  }
  size_t DirtyBlocks() const { return dirty_; }

 private:
  struct Entry {
    BlockId id = 0;
    std::vector<uint8_t> payload;
    bool dirty = false;
  };
  struct Shard {
    std::list<Entry> lru;
    std::unordered_map<BlockId, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(BlockId id) { return shards_[id % shards_.size()]; }

  void InsertLocked(Shard& shard, BlockId id,
                    const std::vector<uint8_t>& payload, bool dirty) {
    if (!dirty && payload.size() > shard_capacity_bytes_) return;
    shard.lru.push_front(Entry{id, payload, dirty});
    shard.index[id] = shard.lru.begin();
    shard.bytes += payload.size();
    stats_.bytes_cached += payload.size();
    ++stats_.blocks_cached;
    ++stats_.insertions;
    if (dirty) ++dirty_;
    EvictToBudgetLocked(shard);
  }

  void EvictToBudgetLocked(Shard& shard) {
    auto it = shard.lru.end();
    while (shard.bytes > shard_capacity_bytes_ && it != shard.lru.begin()) {
      --it;
      if (it->dirty) continue;
      shard.bytes -= it->payload.size();
      stats_.bytes_cached -= it->payload.size();
      --stats_.blocks_cached;
      ++stats_.evictions;
      shard.index.erase(it->id);
      it = shard.lru.erase(it);
    }
  }

  BlockDevice* device_;
  BlockCacheConfig config_;
  size_t shard_capacity_bytes_;
  std::vector<Shard> shards_;
  obs::CacheStats stats_;
  size_t dirty_ = 0;
};

void ExpectSameStats(const obs::CacheStats& got, const obs::CacheStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
  EXPECT_EQ(got.invalidations, want.invalidations) << where;
  EXPECT_EQ(got.insertions, want.insertions) << where;
  EXPECT_EQ(got.bytes_cached, want.bytes_cached) << where;
  EXPECT_EQ(got.blocks_cached, want.blocks_cached) << where;
  EXPECT_EQ(got.capacity_bytes, want.capacity_bytes) << where;
}

// 10^5+ seeded operations per run, over shard counts, budgets, both write
// modes and payloads from empty to larger than a whole shard's budget:
// after every operation the flat cache and the list + map reference agree
// on the hit flag, the payload, the status, every counter and every id's
// residency. Residency after each step pins the LRU victim order.
TEST(BlockCacheReferenceTest, MatchesListMapCacheOpForOp) {
  struct Config {
    size_t capacity_bytes;
    size_t num_shards;
    bool write_back;
  };
  const std::vector<Config> configs = {
      {512, 1, false},  {512, 1, true},   {1024, 2, false}, {1024, 3, true},
      {4096, 8, false}, {4096, 8, true},  {256, 4, false},  {3000, 5, true},
  };
  constexpr size_t kBlockSize = 256;
  constexpr BlockId kIds = 48;
  constexpr size_t kOpsPerConfig = 15000;
  size_t ops = 0;
  for (size_t c = 0; c < configs.size(); ++c) {
    const BlockCacheConfig config{configs[c].capacity_bytes,
                                  configs[c].num_shards,
                                  configs[c].write_back};
    MemBlockDevice device(kBlockSize);
    MemBlockDevice ref_device(kBlockSize);
    BlockCache cache(&device, config);
    ListMapCache ref(&ref_device, config);
    device.Allocate(kIds);
    ref_device.Allocate(kIds);
    Rng rng(1000 + c);
    auto random_id = [&] {
      return static_cast<BlockId>(rng.UniformInt(0, kIds - 1));
    };
    auto random_ids = [&] {
      std::vector<BlockId> ids(static_cast<size_t>(rng.UniformInt(0, 4)));
      for (BlockId& id : ids) id = random_id();
      return ids;
    };
    for (size_t op = 0; op < kOpsPerConfig; ++op, ++ops) {
      const std::string where =
          "config " + std::to_string(c) + " op " + std::to_string(op);
      const int64_t kind = rng.UniformInt(0, 99);
      if (kind < 55) {
        const BlockId id = random_id();
        if (rng.Bernoulli(0.01)) {
          device.FailNextReads(1);
          ref_device.FailNextReads(1);
        }
        bool hit = false;
        bool ref_hit = false;
        auto got = cache.Read(id, &hit);
        auto want = ref.Read(id, &ref_hit);
        ASSERT_EQ(hit, ref_hit) << where;
        ASSERT_EQ(got.ok(), want.ok()) << where;
        if (got.ok()) {
          ASSERT_EQ(*got, *want) << where;
        }
      } else if (kind < 80) {
        const BlockId id = random_id();
        // Mostly block-sized payloads; some empty, some past a small
        // shard's whole budget (still within the device's block).
        const size_t size = static_cast<size_t>(rng.UniformInt(0, kBlockSize));
        std::vector<uint8_t> payload(size);
        for (uint8_t& byte : payload) {
          byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        ASSERT_EQ(cache.Write(id, payload).code(),
                  ref.Write(id, payload).code())
            << where;
      } else if (kind < 86) {
        const BlockId id = random_id();
        cache.Invalidate(id);
        ref.Invalidate(id);
      } else if (kind < 91) {
        const BlockId id = random_id();
        ASSERT_EQ(cache.Contains(id), ref.Contains(id)) << where;
      } else if (kind < 95) {
        const std::vector<BlockId> ids = random_ids();
        ASSERT_EQ(cache.FlushBlocks(ids).code(), ref.FlushBlocks(ids).code())
            << where;
      } else if (kind < 98) {
        const std::vector<BlockId> ids = random_ids();
        cache.DropDirty(ids);
        ref.DropDirty(ids);
      } else {
        cache.Clear();
        ref.Clear();
      }
      ExpectSameStats(cache.Stats(), ref.Stats(), where);
      ASSERT_EQ(cache.DirtyBlocks(), ref.DirtyBlocks()) << where;
      for (BlockId id = 0; id < kIds; ++id) {
        ASSERT_EQ(cache.Contains(id), ref.Contains(id))
            << where << " id " << id;
      }
      if (::testing::Test::HasFailure()) return;
    }
    // The run must have exercised eviction, invalidation and dirty pinning.
    const obs::CacheStats stats = cache.Stats();
    EXPECT_GT(stats.evictions, 0u) << "config " << c;
    EXPECT_GT(stats.invalidations, 0u) << "config " << c;
    EXPECT_GT(stats.hits, 0u) << "config " << c;
  }
  EXPECT_GE(ops, 100000u);
}

TEST(BlockCacheTest, ReadThroughHitAndMissAccounting) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{/*capacity_bytes=*/1024,
                                             /*num_shards=*/1});
  BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, Payload(1, 16)).ok());
  device.ResetCounters();

  bool hit = true;
  auto first = cache.Read(id, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(first.ValueOrDie(), Payload(1, 16));
  EXPECT_EQ(device.reads(), 1u);

  auto second = cache.Read(id, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.ValueOrDie(), Payload(1, 16));
  // The hit never reached the device.
  EXPECT_EQ(device.reads(), 1u);

  obs::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.blocks_cached, 1u);
  EXPECT_EQ(stats.bytes_cached, 16u);
  EXPECT_EQ(stats.capacity_bytes, 1024u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(BlockCacheTest, FailedDeviceReadPropagatesAndCachesNothing) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{1024, 1});
  BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, Payload(3, 8)).ok());
  device.FailNextReads(1);

  bool hit = true;
  EXPECT_FALSE(cache.Read(id, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_FALSE(cache.Contains(id));
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.Stats().insertions, 0u);

  // The fault is consumed; the retry reads through and admits the block.
  ASSERT_TRUE(cache.Read(id, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_TRUE(cache.Contains(id));
}

TEST(BlockCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  MemBlockDevice device(64);
  // Room for exactly three 16-byte payloads in the single shard.
  BlockCache cache(&device, BlockCacheConfig{/*capacity_bytes=*/48,
                                             /*num_shards=*/1});
  std::vector<BlockId> ids;
  for (uint8_t i = 0; i < 4; ++i) {
    BlockId id = device.Allocate();
    ASSERT_TRUE(device.Write(id, Payload(i, 16)).ok());
    ids.push_back(id);
  }

  // Fill: miss a, b, c -> cache holds {a, b, c}, LRU order c > b > a.
  ASSERT_TRUE(cache.Read(ids[0]).ok());
  ASSERT_TRUE(cache.Read(ids[1]).ok());
  ASSERT_TRUE(cache.Read(ids[2]).ok());
  EXPECT_EQ(cache.Stats().bytes_cached, 48u);

  // Touch a so b becomes the LRU victim.
  bool hit = false;
  ASSERT_TRUE(cache.Read(ids[0], &hit).ok());
  EXPECT_TRUE(hit);

  // Admitting d must evict exactly b.
  ASSERT_TRUE(cache.Read(ids[3]).ok());
  EXPECT_TRUE(cache.Contains(ids[0]));
  EXPECT_FALSE(cache.Contains(ids[1]));
  EXPECT_TRUE(cache.Contains(ids[2]));
  EXPECT_TRUE(cache.Contains(ids[3]));

  obs::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.blocks_cached, 3u);
  EXPECT_EQ(stats.bytes_cached, 48u);
}

TEST(BlockCacheTest, ContainsDoesNotTouchLruOrder) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{32, 1});
  BlockId a = device.Allocate();
  BlockId b = device.Allocate();
  BlockId c = device.Allocate();
  for (BlockId id : {a, b, c}) {
    ASSERT_TRUE(device.Write(id, Payload(static_cast<uint8_t>(id), 16)).ok());
  }
  ASSERT_TRUE(cache.Read(a).ok());
  ASSERT_TRUE(cache.Read(b).ok());
  // If Contains promoted a, b would be the victim below. The planner's
  // residency probes must not change what EXPLAIN is predicting about.
  EXPECT_TRUE(cache.Contains(a));
  ASSERT_TRUE(cache.Read(c).ok());
  EXPECT_FALSE(cache.Contains(a));
  EXPECT_TRUE(cache.Contains(b));
  EXPECT_TRUE(cache.Contains(c));
}

TEST(BlockCacheTest, OversizedPayloadIsNotAdmitted) {
  MemBlockDevice device(64);
  // Two shards: each shard's budget is 16 bytes, below the 32-byte payload.
  BlockCache cache(&device, BlockCacheConfig{32, 2});
  BlockId id = device.Allocate();
  ASSERT_TRUE(device.Write(id, Payload(9, 32)).ok());
  ASSERT_TRUE(cache.Read(id).ok());
  EXPECT_FALSE(cache.Contains(id));
  EXPECT_EQ(cache.Stats().insertions, 0u);
  EXPECT_EQ(cache.Stats().bytes_cached, 0u);
}

TEST(BlockCacheTest, WriteInvalidatesBeforeReachingDevice) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{1024, 1});
  BlockId id = device.Allocate();
  ASSERT_TRUE(cache.Write(id, Payload(1, 8)).ok());
  // Warm the cache with the old payload.
  ASSERT_TRUE(cache.Read(id).ok());
  ASSERT_TRUE(cache.Contains(id));

  // Overwrite through the cache: the stale copy must be gone and the next
  // read must see the new bytes (a fresh miss, not a stale hit).
  ASSERT_TRUE(cache.Write(id, Payload(7, 8)).ok());
  EXPECT_FALSE(cache.Contains(id));
  EXPECT_EQ(cache.Stats().invalidations, 1u);

  bool hit = true;
  auto read = cache.Read(id, &hit);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(read.ValueOrDie(), Payload(7, 8));
}

TEST(BlockCacheTest, FailedWriteStillInvalidates) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{1024, 1});
  BlockId id = device.Allocate();
  ASSERT_TRUE(cache.Write(id, Payload(1, 8)).ok());
  ASSERT_TRUE(cache.Read(id).ok());

  device.FailNextWrites(1);
  EXPECT_FALSE(cache.Write(id, Payload(2, 8)).ok());
  // Invalidate-before-write: even though the device write failed, the
  // cached copy is dropped, so no reader can observe pre-failure bytes
  // that the device may or may not hold.
  EXPECT_FALSE(cache.Contains(id));
}

TEST(BlockCacheTest, ClearDropsEverythingButKeepsCounters) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{1024, 4});
  std::vector<BlockId> ids;
  for (uint8_t i = 0; i < 6; ++i) {
    BlockId id = device.Allocate();
    ASSERT_TRUE(device.Write(id, Payload(i, 16)).ok());
    ASSERT_TRUE(cache.Read(id).ok());
    ids.push_back(id);
  }
  EXPECT_EQ(cache.Stats().blocks_cached, 6u);
  cache.Clear();
  obs::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.blocks_cached, 0u);
  EXPECT_EQ(stats.bytes_cached, 0u);
  EXPECT_EQ(stats.misses, 6u);
  for (BlockId id : ids) EXPECT_FALSE(cache.Contains(id));
}

TEST(BlockCacheTest, ShardingKeepsPerShardBudgets) {
  MemBlockDevice device(64);
  // Two shards, 32 bytes each. Even-id blocks land on shard 0, odd on 1.
  BlockCache cache(&device, BlockCacheConfig{64, 2});
  EXPECT_EQ(cache.num_shards(), 2u);
  std::vector<BlockId> ids;
  for (uint8_t i = 0; i < 4; ++i) {
    BlockId id = device.Allocate();
    ASSERT_TRUE(device.Write(id, Payload(i, 16)).ok());
    ASSERT_TRUE(cache.Read(id).ok());
    ids.push_back(id);
  }
  // All four fit: two per shard.
  EXPECT_EQ(cache.Stats().blocks_cached, 4u);
  // A third even-id block evicts only within shard 0; the odd blocks stay.
  BlockId extra = device.Allocate();
  ASSERT_TRUE(device.Write(extra, Payload(9, 16)).ok());
  ASSERT_TRUE(cache.Read(extra).ok());
  EXPECT_FALSE(cache.Contains(ids[0]));
  EXPECT_TRUE(cache.Contains(ids[1]));
  EXPECT_TRUE(cache.Contains(ids[3]));
}

// Mirrors the server's locking: Reads run under shared locks, Invalidate
// (the write path) under an exclusive lock. Run under TSan this verifies
// the cache's internal synchronization adds no races of its own.
TEST(BlockCacheTest, ConcurrentReadsAndInvalidateAreClean) {
  MemBlockDevice device(64);
  BlockCache cache(&device, BlockCacheConfig{4096, 4});
  std::vector<BlockId> ids;
  for (uint8_t i = 0; i < 8; ++i) {
    BlockId id = device.Allocate();
    ASSERT_TRUE(device.Write(id, Payload(i, 32)).ok());
    ids.push_back(id);
  }

  std::shared_mutex table_lock;
  std::atomic<bool> stop{false};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        {
          std::shared_lock<std::shared_mutex> lock(table_lock);
          if (!cache.Read(ids[i % ids.size()]).ok()) ++read_errors;
        }
        ++reads;
        ++i;
        // glibc's shared_mutex prefers readers: readers that re-lock at
        // once keep it shared, and the invalidator waits behind them for
        // seconds. A pause after each release lets it in.
        std::this_thread::yield();
      }
    });
  }
  size_t reads_at_first_invalidation = 0;
  size_t reads_at_last_invalidation = 0;
  std::thread invalidator([&] {
    // Start once the readers are reading, and pause between rounds, so the
    // 200 invalidations interleave with reads even on a loaded host.
    while (reads.load() < 4) std::this_thread::yield();
    for (int round = 0; round < 200; ++round) {
      {
        std::unique_lock<std::shared_mutex> lock(table_lock);
        if (round == 0) reads_at_first_invalidation = reads.load();
        if (round == 199) reads_at_last_invalidation = reads.load();
        cache.Invalidate(ids[static_cast<size_t>(round) % ids.size()]);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  invalidator.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  // The readers were served between the invalidations, not only after.
  EXPECT_GT(reads_at_last_invalidation, reads_at_first_invalidation);
  obs::CacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  // Conservation: every resident byte was inserted and not yet removed.
  EXPECT_EQ(stats.insertions - stats.evictions - stats.invalidations,
            stats.blocks_cached);
}

}  // namespace
}  // namespace aims::storage
