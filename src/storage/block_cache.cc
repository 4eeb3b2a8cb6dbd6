#include "storage/block_cache.h"

#include <algorithm>

#include "common/macros.h"

namespace aims::storage {

BlockCache::BlockCache(BlockDevice* device, BlockCacheConfig config)
    : device_(device),
      config_(config),
      shard_capacity_bytes_(config.capacity_bytes /
                            std::max<size_t>(config.num_shards, 1)),
      shards_(std::max<size_t>(config.num_shards, 1)) {
  AIMS_CHECK(device_ != nullptr);
}

size_t BlockCache::Shard::Home(BlockId id) const {
  // The ids of one shard share a residue modulo the shard count: the
  // multiply spreads them over the high bits, the shift folds those down.
  uint32_t h = id * 0x9E3779B9u;
  h ^= h >> 16;
  return static_cast<size_t>(h) & (table.size() - 1);
}

uint32_t BlockCache::Shard::Find(BlockId id) const {
  if (table.empty()) return kNil;
  const size_t mask = table.size() - 1;
  for (size_t i = Home(id);; i = (i + 1) & mask) {
    const IndexEntry& entry = table[i];
    if (entry.slot == kNil || entry.id == id) return entry.slot;
  }
}

void BlockCache::Shard::TableInsert(BlockId id, uint32_t slot) {
  if ((live + 1) * 2 > table.size()) {
    std::vector<IndexEntry> old = std::move(table);
    table.assign(std::max<size_t>(old.size() * 2, 16), IndexEntry{});
    for (const IndexEntry& entry : old) {
      if (entry.slot == kNil) continue;
      size_t i = Home(entry.id);
      while (table[i].slot != kNil) i = (i + 1) & (table.size() - 1);
      table[i] = entry;
    }
  }
  const size_t mask = table.size() - 1;
  size_t i = Home(id);
  while (table[i].slot != kNil) i = (i + 1) & mask;
  table[i] = IndexEntry{id, slot};
  ++live;
}

void BlockCache::Shard::TableErase(BlockId id) {
  const size_t mask = table.size() - 1;
  size_t hole = Home(id);
  while (table[hole].id != id || table[hole].slot == kNil) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically in (hole, j], where moving
  // it would put it before its home.
  for (size_t j = (hole + 1) & mask; table[j].slot != kNil;
       j = (j + 1) & mask) {
    const size_t home = Home(table[j].id);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (!stays) {
      table[hole] = table[j];
      hole = j;
    }
  }
  table[hole].slot = kNil;
  --live;
}

void BlockCache::Shard::Unlink(uint32_t slot) {
  Slot& s = slots[slot];
  if (s.prev != kNil) {
    slots[s.prev].next = s.next;
  } else {
    head = s.next;
  }
  if (s.next != kNil) {
    slots[s.next].prev = s.prev;
  } else {
    tail = s.prev;
  }
}

void BlockCache::Shard::PushFront(uint32_t slot) {
  Slot& s = slots[slot];
  s.prev = kNil;
  s.next = head;
  if (head != kNil) {
    slots[head].prev = slot;
  } else {
    tail = slot;
  }
  head = slot;
}

void BlockCache::Shard::MoveToFront(uint32_t slot) {
  if (head == slot) return;
  Unlink(slot);
  PushFront(slot);
}

uint32_t BlockCache::Shard::Add(BlockId id) {
  uint32_t slot = free;
  if (slot != kNil) {
    free = slots[slot].next;
  } else {
    AIMS_CHECK(slots.size() < kNil);
    slot = static_cast<uint32_t>(slots.size());
    slots.emplace_back();
  }
  slots[slot].id = id;
  PushFront(slot);
  TableInsert(id, slot);
  return slot;
}

void BlockCache::Shard::Remove(uint32_t slot) {
  Slot& s = slots[slot];
  TableErase(s.id);
  Unlink(slot);
  // The payload keeps its buffer for the slot's next entry.
  s.payload.clear();
  s.dirty = false;
  s.next = free;
  free = slot;
}

Result<std::vector<uint8_t>> BlockCache::Read(BlockId id, bool* hit) const {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const uint32_t slot = shard.Find(id);
    if (slot != kNil) {
      shard.MoveToFront(slot);
      hits_.fetch_add(1, kRelaxed);
      if (hit != nullptr) *hit = true;
      return shard.slots[slot].payload;
    }
  }
  // Miss: read through outside the lock so one slow device access (8 ms
  // simulated seek) never serializes the whole shard.
  misses_.fetch_add(1, kRelaxed);
  if (hit != nullptr) *hit = false;
  AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, device_->Read(id));
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // A concurrent miss on the same block may have admitted it already;
    // its copy is identical (reads race only with reads), so keep it.
    if (shard.Find(id) == kNil) {
      InsertLocked(shard, id, payload, /*dirty=*/false);
    }
  }
  return payload;
}

void BlockCache::RemoveLocked(Shard& shard, uint32_t slot) const {
  const Slot& entry = shard.slots[slot];
  shard.bytes -= entry.payload.size();
  bytes_cached_.fetch_sub(entry.payload.size(), kRelaxed);
  blocks_cached_.fetch_sub(1, kRelaxed);
  if (entry.dirty) dirty_blocks_.fetch_sub(1, kRelaxed);
  shard.Remove(slot);
}

void BlockCache::EvictToBudgetLocked(Shard& shard) const {
  // Walk from the LRU tail, evicting clean entries only: dirty entries
  // are the sole copy of staged data and are pinned until FlushBlocks.
  uint32_t slot = shard.tail;
  while (shard.bytes > shard_capacity_bytes_ && slot != kNil) {
    const uint32_t newer = shard.slots[slot].prev;
    if (!shard.slots[slot].dirty) {
      evictions_.fetch_add(1, kRelaxed);
      RemoveLocked(shard, slot);
    }
    slot = newer;
  }
}

void BlockCache::InsertLocked(Shard& shard, BlockId id,
                              const std::vector<uint8_t>& payload,
                              bool dirty) const {
  if (!dirty && payload.size() > shard_capacity_bytes_) {
    return;  // a clean payload that would evict a whole shard
  }
  const uint32_t slot = shard.Add(id);
  Slot& entry = shard.slots[slot];
  entry.payload.assign(payload.begin(), payload.end());
  entry.dirty = dirty;
  shard.bytes += payload.size();
  bytes_cached_.fetch_add(payload.size(), kRelaxed);
  blocks_cached_.fetch_add(1, kRelaxed);
  insertions_.fetch_add(1, kRelaxed);
  if (dirty) dirty_blocks_.fetch_add(1, kRelaxed);
  EvictToBudgetLocked(shard);
}

Status BlockCache::Write(BlockId id, const std::vector<uint8_t>& payload) {
  if (config_.write_back) {
    // Buffer-pool staging: the payload parks in the cache as a dirty
    // pinned entry and reaches the device only via FlushBlocks, once its
    // transaction's commit record is durable (no-steal).
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const uint32_t slot = shard.Find(id);
    if (slot != kNil) {
      Slot& entry = shard.slots[slot];
      shard.bytes -= entry.payload.size();
      bytes_cached_.fetch_sub(entry.payload.size(), kRelaxed);
      if (!entry.dirty) dirty_blocks_.fetch_add(1, kRelaxed);
      entry.payload.assign(payload.begin(), payload.end());
      entry.dirty = true;
      shard.bytes += payload.size();
      bytes_cached_.fetch_add(payload.size(), kRelaxed);
      shard.MoveToFront(slot);
      EvictToBudgetLocked(shard);
    } else {
      InsertLocked(shard, id, payload, /*dirty=*/true);
    }
    return Status::OK();
  }
  // Invalidate before the device write: whatever the write's outcome, the
  // cache never holds bytes the device does not.
  Invalidate(id);
  return device_->Write(id, payload);
}

Status BlockCache::FlushBlocks(const std::vector<BlockId>& ids) {
  for (BlockId id : ids) {
    Shard& shard = ShardFor(id);
    std::vector<uint8_t> payload;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const uint32_t slot = shard.Find(id);
      if (slot == kNil || !shard.slots[slot].dirty) continue;
      payload = shard.slots[slot].payload;
    }
    // The device write happens outside the shard lock; the exclusive
    // synchronization FlushBlocks requires means nothing can change the
    // entry underneath us.
    AIMS_RETURN_NOT_OK(device_->Write(id, payload));
    std::lock_guard<std::mutex> lock(shard.mutex);
    const uint32_t slot = shard.Find(id);
    if (slot != kNil && shard.slots[slot].dirty) {
      shard.slots[slot].dirty = false;
      dirty_blocks_.fetch_sub(1, kRelaxed);
      EvictToBudgetLocked(shard);
    }
  }
  return Status::OK();
}

void BlockCache::DropDirty(const std::vector<BlockId>& ids) {
  for (BlockId id : ids) {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const uint32_t slot = shard.Find(id);
    if (slot == kNil || !shard.slots[slot].dirty) continue;
    invalidations_.fetch_add(1, kRelaxed);
    RemoveLocked(shard, slot);
  }
}

size_t BlockCache::DirtyBlocks() const {
  return dirty_blocks_.load(kRelaxed);
}

void BlockCache::Invalidate(BlockId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const uint32_t slot = shard.Find(id);
  if (slot == kNil) return;
  invalidations_.fetch_add(1, kRelaxed);
  RemoveLocked(shard, slot);
}

bool BlockCache::Contains(BlockId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.Find(id) != kNil;
}

void BlockCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Dirty entries survive a Clear: they are the only copy of staged
    // data, so "cool the cache" must never mean "lose the pool".
    for (uint32_t slot = shard.head; slot != kNil;) {
      const uint32_t older = shard.slots[slot].next;
      if (!shard.slots[slot].dirty) RemoveLocked(shard, slot);
      slot = older;
    }
  }
}

obs::CacheStats BlockCache::Stats() const {
  obs::CacheStats stats;
  stats.hits = hits_.load(kRelaxed);
  stats.misses = misses_.load(kRelaxed);
  stats.evictions = evictions_.load(kRelaxed);
  stats.invalidations = invalidations_.load(kRelaxed);
  stats.insertions = insertions_.load(kRelaxed);
  stats.bytes_cached = bytes_cached_.load(kRelaxed);
  stats.blocks_cached = blocks_cached_.load(kRelaxed);
  stats.capacity_bytes = config_.capacity_bytes;
  return stats;
}

}  // namespace aims::storage
