#include "server/shard_router.h"

#include <algorithm>
#include <mutex>

#include "common/macros.h"

namespace aims::server {

ShardRouter::ShardRouter(size_t num_shards, ShardRouterConfig config)
    : config_(config) {
  AIMS_CHECK(num_shards >= 1);
  points_.reserve(num_shards * kVnodesPerShard);
  for (size_t i = 0; i < num_shards; ++i) {
    num_shards_ = i + 1;
    InsertShardPoints(i);
  }
}

uint64_t ShardRouter::Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void ShardRouter::InsertShardPoints(size_t shard) {
  for (size_t v = 0; v < kVnodesPerShard; ++v) {
    RingPoint point;
    // Two mixing rounds decorrelate (shard, vnode) pairs; the seed keeps
    // independent rings distinct.
    point.hash = Mix64(Mix64(static_cast<uint64_t>(shard) ^ config_.hash_seed) +
                       static_cast<uint64_t>(v));
    point.shard = static_cast<uint32_t>(shard);
    auto it = std::lower_bound(points_.begin(), points_.end(), point.hash,
                               [](const RingPoint& p, uint64_t h) {
                                 return p.hash < h;
                               });
    points_.insert(it, point);
  }
}

size_t ShardRouter::SuccessorShard(uint64_t hash) const {
  auto it = std::lower_bound(points_.begin(), points_.end(), hash,
                             [](const RingPoint& p, uint64_t h) {
                               return p.hash < h;
                             });
  if (it == points_.end()) it = points_.begin();  // wrap around the ring
  return static_cast<size_t>(it->shard);
}

size_t ShardRouter::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return num_shards_;
}

size_t ShardRouter::ShardForClient(ClientId client) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto pin = pins_.find(client);
  if (pin != pins_.end()) return pin->second;
  return SuccessorShard(Mix64(client ^ config_.hash_seed));
}

size_t ShardRouter::RingShardForClient(ClientId client) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return SuccessorShard(Mix64(client ^ config_.hash_seed));
}

void ShardRouter::SetPin(ClientId client, size_t shard) {
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    AIMS_CHECK(shard < num_shards_);
    pins_[client] = shard;
  }
  BumpEpoch();
}

void ShardRouter::ClearPin(ClientId client) {
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    pins_.erase(client);
  }
  BumpEpoch();
}

std::optional<size_t> ShardRouter::PinOf(ClientId client) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = pins_.find(client);
  if (it == pins_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<ClientId, size_t>> ShardRouter::Pins() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return {pins_.begin(), pins_.end()};
}

void ShardRouter::AddShard() {
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    size_t shard = num_shards_++;
    InsertShardPoints(shard);
  }
  BumpEpoch();
}

}  // namespace aims::server
