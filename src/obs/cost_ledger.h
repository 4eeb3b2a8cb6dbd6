#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

/// \file cost_ledger.h
/// \brief Per-tenant cost attribution. Where the MetricsRegistry answers
/// "how much work is the server doing", the CostLedger answers "who is it
/// doing it for": every ingest, query, and stream path charges the acting
/// tenant's cells — CPU nanoseconds, block reads/writes, bytes moved,
/// queue occupancy — so a multi-tenant deployment can see which client is
/// burning the I/O budget (the ROADMAP's million-user accounting story).
///
/// The design mirrors the registry's resolve-once-then-lock-free pattern:
/// ForTenant takes a mutex only on a tenant's FIRST charge — later lookups
/// hit a write-once lock-free fast table — and the returned TenantLedger
/// is pointer-stable for the ledger's lifetime with every charge on it a
/// relaxed atomic add: cheap enough to stay always-on (bench_query_cost
/// bounds a query's charge sequence at < 2% of the query's CPU).

namespace aims::obs {

/// \brief Identifier of one tenant. The server layer charges its ClientId
/// here; the obs layer itself is agnostic about what the id means.
using TenantId = uint64_t;

/// \brief Point-in-time copy of one tenant's accumulated costs.
struct TenantUsage {
  /// CPU time spent on this tenant's requests (ScopedCpuCharge sections,
  /// and each query's span from dispatch to its outcome).
  uint64_t cpu_ns = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Total time this tenant's queries sat in the scheduler's admission
  /// queue — the "queue occupancy" a noisy tenant inflicts on itself.
  double queue_ms = 0.0;
  uint64_t queries = 0;
  uint64_t ingests = 0;
  uint64_t stream_batches = 0;
  uint64_t slow_queries = 0;
  /// Submissions rejected by admission control (no other cost charged).
  uint64_t rejected = 0;

  /// Field-wise sum, for ledger-wide totals.
  void Accumulate(const TenantUsage& other);
};

/// \brief One tenant's live cost cells. All charges are relaxed atomic
/// adds: safe from any thread, never blocking, and individually exact
/// (Snapshot tears only across fields, never within one).
class TenantLedger {
 public:
  void ChargeCpuNs(uint64_t ns) { cpu_ns_.fetch_add(ns, kRelaxed); }
  void ChargeRead(uint64_t blocks, uint64_t bytes) {
    blocks_read_.fetch_add(blocks, kRelaxed);
    bytes_read_.fetch_add(bytes, kRelaxed);
  }
  void ChargeWrite(uint64_t blocks, uint64_t bytes) {
    blocks_written_.fetch_add(blocks, kRelaxed);
    bytes_written_.fetch_add(bytes, kRelaxed);
  }
  void ChargeQueueMs(double ms) { queue_ms_.fetch_add(ms, kRelaxed); }
  void CountQuery() { queries_.fetch_add(1, kRelaxed); }
  void CountIngest() { ingests_.fetch_add(1, kRelaxed); }
  void CountStreamBatch() { stream_batches_.fetch_add(1, kRelaxed); }
  void CountSlowQuery() { slow_queries_.fetch_add(1, kRelaxed); }
  void CountRejected() { rejected_.fetch_add(1, kRelaxed); }

  TenantUsage Snapshot() const;

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> cpu_ns_{0};
  std::atomic<uint64_t> blocks_read_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  /// fetch_add on atomic<double> is C++20 (same idiom as Histogram::sum_).
  std::atomic<double> queue_ms_{0.0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> ingests_{0};
  std::atomic<uint64_t> stream_batches_{0};
  std::atomic<uint64_t> slow_queries_{0};
  std::atomic<uint64_t> rejected_{0};
};

/// \brief Registry of per-tenant ledgers. Thread-safe; the mutex guards
/// only tenant registration and enumeration, never the charges themselves.
class CostLedger {
 public:
  /// \brief The tenant's ledger, created on first use. The pointer stays
  /// valid for the CostLedger's lifetime — resolve once per request (or
  /// once per service), then charge lock-free.
  TenantLedger* ForTenant(TenantId tenant);

  /// \brief Usage of one tenant, or nullopt if it was never charged.
  std::optional<TenantUsage> Usage(TenantId tenant) const;

  /// \brief Every tenant's usage, sorted by tenant id.
  std::vector<std::pair<TenantId, TenantUsage>> Snapshot() const;

  /// \brief Field-wise sum across all tenants.
  TenantUsage Total() const;

  size_t num_tenants() const;

 private:
  /// Lock-free fast path for already-registered tenants: an open-addressed
  /// table whose slots are written exactly once (tenants are never
  /// removed), so readers need no lock and no seqlock — a slot's id never
  /// changes after it is claimed. Misses (new tenant, sentinel-valued id,
  /// table full) fall back to the mutex-guarded map, which stays the
  /// source of truth for enumeration.
  static constexpr size_t kFastSlots = 256;  // power of two (probe mask)
  static constexpr TenantId kEmptySlot = ~TenantId{0};
  struct FastSlot {
    std::atomic<TenantId> id{kEmptySlot};
    std::atomic<TenantLedger*> ledger{nullptr};
  };

  TenantLedger* FastLookup(TenantId tenant) const;
  void FastPublishLocked(TenantId tenant, TenantLedger* ledger);

  mutable std::mutex mutex_;
  /// unique_ptr cells so ForTenant's pointers survive rehash/rebalance.
  std::map<TenantId, std::unique_ptr<TenantLedger>> tenants_;
  mutable FastSlot fast_[kFastSlots];
};

/// \brief RAII CPU-time charge: an always-on scoped timer — one
/// steady_clock pair per section, one relaxed add on destruction. A null ledger makes it a no-op, so call
/// sites need no branches of their own.
class ScopedCpuCharge {
 public:
  explicit ScopedCpuCharge(TenantLedger* ledger)
      : ledger_(ledger),
        start_(ledger == nullptr ? std::chrono::steady_clock::time_point{}
                                 : std::chrono::steady_clock::now()) {}
  ~ScopedCpuCharge() {
    if (ledger_ == nullptr) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    if (ns > 0) ledger_->ChargeCpuNs(static_cast<uint64_t>(ns));
  }

  ScopedCpuCharge(const ScopedCpuCharge&) = delete;
  ScopedCpuCharge& operator=(const ScopedCpuCharge&) = delete;

 private:
  TenantLedger* ledger_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aims::obs
