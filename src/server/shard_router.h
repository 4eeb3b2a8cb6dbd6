#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file shard_router.h
/// \brief Consistent-hash placement of tenants onto shards, plus the pin
/// table the live migrator uses to override it. This is the single source
/// of placement truth: nothing above the router may assume `client % N`.
///
/// The ring carries kVnodesPerShard virtual points per shard, hashed
/// with a splitmix64-style mixer, and a tenant lands on the successor of
/// its own hash. Growing the ring N -> N+1 therefore remaps only the
/// tenants whose successor became one of the new shard's points — in
/// expectation 1/(N+1) of them, and *every* remapped tenant moves TO the
/// new shard (a property test pins both facts). Contrast with modulo
/// placement, which remaps N/(N+1) of all tenants on every resize.
///
/// Pins: `SetPin(client, shard)` overrides the ring for one tenant — the
/// migrator pins a tenant to its target shard before copying, and a
/// committed migration keeps the pin so the tenant's future ingests land
/// where its data lives. Pins survive restart via the catalog's routing
/// journal, not the router itself (the router is pure in-memory state).
///
/// Epoch: a monotone counter bumped on every topology or committed-pin
/// change. The catalog folds it into newly minted session ids, which makes
/// ids traceable to a routing generation without encoding a shard index.
///
/// Thread-safe: lookups take a shared lock; pin/topology changes take the
/// exclusive lock. Lookups are O(log(points)) binary searches.

namespace aims::server {

/// \brief Identifier of one tenant (client) of the service runtime.
using ClientId = uint64_t;

/// \brief Tuning of one ShardRouter.
struct ShardRouterConfig {
  /// Seed folded into every hash, so independent routers (tests) can
  /// build distinct rings from the same shard count.
  uint64_t hash_seed = 0x9e3779b97f4a7c15ull;
};

/// \brief Consistent-hash ring + tenant pin table.
class ShardRouter {
 public:
  /// Virtual nodes per shard. More points -> smoother load split and a
  /// tighter remap bound, at O(points log points) build cost.
  static constexpr size_t kVnodesPerShard = 128;

  explicit ShardRouter(size_t num_shards, ShardRouterConfig config = {});

  size_t num_shards() const;

  /// \brief Placement: the pin if one is set, else the ring successor of
  /// the tenant's hash.
  size_t ShardForClient(ClientId client) const;

  /// \brief Pure ring placement, ignoring pins — what the tenant would map
  /// to with no migration history. Used by the planner and property tests.
  size_t RingShardForClient(ClientId client) const;

  /// \brief Pins \p client to \p shard, overriding the ring. Bumps the
  /// epoch. No-op (but still an epoch bump) when re-pinning to the same
  /// shard.
  void SetPin(ClientId client, size_t shard);

  /// \brief Removes \p client's pin; the tenant falls back to the ring.
  void ClearPin(ClientId client);

  std::optional<size_t> PinOf(ClientId client) const;

  /// All pins, unordered. (Admin/introspection; the catalog journals pins
  /// itself, it does not read them back from here.)
  std::vector<std::pair<ClientId, size_t>> Pins() const;

  /// \brief Grows the ring by one shard (the scale-out path). Existing
  /// pins are untouched. Bumps the epoch.
  void AddShard();

  /// \brief Routing generation: starts at 1, bumped by SetPin/ClearPin/
  /// AddShard and by explicit BumpEpoch (the migrator bumps at commit).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t BumpEpoch() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

 private:
  struct RingPoint {
    uint64_t hash = 0;
    uint32_t shard = 0;
  };

  /// splitmix64 finalizer — full-avalanche 64-bit mixer.
  static uint64_t Mix64(uint64_t x);

  /// Inserts \p shard's vnode points keeping points_ sorted. Caller holds
  /// the exclusive lock.
  void InsertShardPoints(size_t shard);

  /// Ring successor of \p hash. Caller holds at least the shared lock;
  /// points_ is never empty.
  size_t SuccessorShard(uint64_t hash) const;

  ShardRouterConfig config_;
  mutable std::shared_mutex mutex_;
  size_t num_shards_ = 0;                       ///< Guarded by mutex_.
  std::vector<RingPoint> points_;               ///< Sorted; guarded by mutex_.
  std::unordered_map<ClientId, size_t> pins_;   ///< Guarded by mutex_.
  std::atomic<uint64_t> epoch_{1};
};

}  // namespace aims::server
