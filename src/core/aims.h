#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/tracer.h"
#include "obs/wal_stats.h"
#include "propolyne/evaluator.h"
#include "recognition/isolator.h"
#include "recognition/vocabulary.h"
#include "signal/dwpt.h"
#include "signal/lazy_wavelet.h"
#include "signal/wavelet_filter.h"
#include "storage/block_cache.h"
#include "storage/block_device.h"
#include "storage/file_block_device.h"
#include "storage/tslife.h"
#include "storage/wal.h"
#include "storage/wavelet_store.h"
#include "streams/sample.h"

/// \file aims.h
/// \brief AimsSystem: the integrated immersidata management system of
/// Fig. 1. It wires the four subsystems together:
///
///   acquisition  -> multi-basis transformation of incoming recordings,
///   storage      -> wavelet coefficients placed on blocks via error-tree
///                   tiling on a counting block device,
///   off-line     -> range statistics answered in the wavelet domain with
///                   block-granular I/O (and full ProPolyne cubes for
///                   multidimensional analysis),
///   on-line      -> vocabulary registration + streaming recognition.

namespace aims::core {

/// \brief Identifier of one stored session.
using SessionId = uint32_t;

/// \brief Durable-storage configuration. With an empty path (the default)
/// the system is the original in-memory simulator: nothing survives the
/// process. With a path, blocks live in a checksummed page file, every
/// ingest is an atomic WAL transaction, and construction recovers
/// whatever a previous incarnation committed. The durable path always
/// stages blocks in a write-back buffer pool: the configured block cache
/// switched to write-back, or a 4 MiB pool when the cache is disabled.
struct DurabilityConfig {
  /// Directory for the store (created if absent): pages.aims (the page
  /// file), wal.aims and wal.1.aims (the log's two files: one takes the
  /// appends, the other is empty or retired by a checkpoint in flight),
  /// catalog.snap (the catalog base, rewritten at open and by compaction)
  /// and catalog.log (one delta record per checkpoint since the base).
  std::string path;
  /// Whether commits fsync (survive power loss) or merely append to the
  /// OS page cache (survive process crash only).
  storage::durable::WalSyncMode sync_mode =
      storage::durable::WalSyncMode::kFsync;
  /// Group-commit window (ms): how long a commit waits for concurrent
  /// commits to share its fsync. 0 syncs per commit.
  double group_commit_ms = 0.0;
  /// Auto-checkpoint once the WAL grows past this many bytes: the WAL
  /// rotates, the pages are synced, the catalog changes its groups carried
  /// are appended to catalog.log, and the retired WAL file is dropped. 0
  /// disables automatic checkpoints; Checkpoint() can always be called
  /// explicitly. Until one runs, the WAL and the pending delta (the
  /// catalog changes it will append) keep growing.
  size_t checkpoint_wal_bytes = 1 << 20;
};

/// \brief System-wide configuration.
struct AimsConfig {
  /// Wavelet family used for storage and offline queries. db2+ enables SUM
  /// queries, db3+ enables VARIANCE.
  signal::WaveletKind filter = signal::WaveletKind::kDb2;
  /// Disk block size for the wavelet store.
  size_t block_size_bytes = 512;
  /// Basis-selection cost functional of the DWPT best-basis report
  /// (AimsSystem::BestBasisReport). Storage always uses the plain DWT, so
  /// this changes no stored byte.
  signal::BasisCost basis_cost = signal::BasisCost::kShannonEntropy;
  /// Disk cost model for the block device. Set simulate_io_wait to make
  /// block I/O take real wall-clock time (server concurrency benches).
  storage::DiskCostModel disk_cost;
  /// Read-through block cache over the device. capacity_bytes == 0 (the
  /// default) disables caching entirely; when nonzero every wavelet-store
  /// read routes through a sharded LRU cache and repeated fetches of a hot
  /// block cost CPU instead of a simulated seek.
  storage::BlockCacheConfig block_cache;
  /// Durable storage (file-backed device + WAL + recovery-on-open). The
  /// default — an empty path — keeps the in-memory simulator.
  DurabilityConfig durability;
  /// Raw-sample lifecycle: Gorilla-compressed segments sealed beside the
  /// wavelet blocks at ingest, downsampled and dropped by retention
  /// sweeps (see storage/tslife.h).
  storage::tslife::TsLifeConfig tslife;
};

/// \brief The (global id, client) pair a caller may attach to a session at
/// ingest. The core stores it in the catalog entry without interpreting
/// it, so it is durable in the ingest's own WAL group and in every
/// snapshot; the server rebuilds its route table from it.
struct SessionOwner {
  uint64_t global_id = 0;
  uint64_t client = 0;
};

/// \brief Catalog entry for a stored session.
struct SessionInfo {
  SessionId id = 0;
  std::string name;
  size_t num_channels = 0;
  size_t num_frames = 0;     ///< Original (unpadded) frame count.
  double sample_rate_hz = 0.0;
  /// Set when the ingest carried one; entries written without an owner
  /// (migration copies, direct core ingests) have none.
  std::optional<SessionOwner> owner;
};

/// \brief Aggregate over a frame range of one stored channel.
struct RangeStatistics {
  double mean = 0.0;
  double sum = 0.0;
  size_t count = 0;
  /// Blocks read from the *device* to answer this query — cache hits (when
  /// a block cache is configured) do not count, so this is the cold-I/O
  /// cost a tenant is billed for.
  size_t blocks_read = 0;
};

/// \brief One step of a progressive facade range query (one block fetch —
/// a device I/O when cold, a cache lookup when hot).
struct ProgressiveRangeStep {
  size_t blocks_read = 0;
  /// Of blocks_read, how many were served by the block cache without
  /// touching the device. Cumulative, like blocks_read.
  size_t cache_hits = 0;
  double sum_estimate = 0.0;
  double mean_estimate = 0.0;
  /// Guaranteed bound on |sum_estimate - exact sum| (Cauchy-Schwarz over
  /// the unread query coefficients and the channel's stored energy).
  double sum_error_bound = 0.0;
};

/// \brief One planned block fetch of a range query, in refinement order.
struct QueryPlanBlockFetch {
  /// Logical block index inside the channel's wavelet store.
  size_t logical_block = 0;
  /// Query coefficients whose stored partners live on this block.
  size_t num_coefficients = 0;
  /// The block's share of the query energy — the "importance" that put it
  /// at this position in the schedule.
  double query_energy = 0.0;
  /// Whether the block was resident in the block cache when the plan was
  /// computed (always false without a cache).
  bool cached = false;
};

/// \brief The EXPLAIN side of a progressive range query: what the lazy
/// transform selected and what the evaluator WOULD read, computed without
/// any device I/O. Deterministic for a given stored channel and range, so
/// an ANALYZE run must reconcile exactly against it (blocks_read ==
/// predicted_blocks when the query runs to completion).
struct QueryPlan {
  /// Session/channel/range the plan was computed for. At the server layer
  /// `session` carries the GlobalSessionId.
  uint64_t session = 0;
  size_t channel = 0;
  size_t first_frame = 0;
  size_t last_frame = 0;
  /// Stored (power-of-two padded) channel length the transform ran over.
  size_t padded_len = 0;
  /// Nonzero query coefficients the lazy transform selected — the O(lg n)
  /// working set of the wavelet-domain evaluation.
  size_t num_query_coefficients = 0;
  /// Distinct wavelet levels touched, ascending. Level 0 is the
  /// approximation root; level k >= 1 is the detail band at depth k
  /// (coefficient indices [2^(k-1), 2^k)), finer as k grows.
  std::vector<size_t> wavelet_levels;
  /// Blocks a run-to-exactness evaluation fetches (== schedule.size()).
  size_t predicted_blocks = 0;
  /// Of predicted_blocks, how many were resident in the block cache at
  /// planning time (0 without a cache). A fetch of a cached block costs
  /// CPU, not I/O.
  size_t predicted_cached_blocks = 0;
  /// predicted_blocks - predicted_cached_blocks: device reads a
  /// run-to-exactness evaluation performs. ANALYZE reconciles its actual
  /// cold read count against this exactly (residency can only grow during
  /// the run, and the run itself only adds blocks from its own schedule).
  size_t predicted_cold_blocks = 0;
  /// Block size the store places coefficients on (bytes moved per fetch).
  size_t block_size_bytes = 0;
  /// predicted_cold_blocks * DiskCostModel::AccessCostMs(block_size_bytes)
  /// — cache hits are free at the I/O layer.
  double predicted_io_ms = 0.0;
  /// The refinement schedule: blocks in decreasing query-energy order
  /// ("most valuable I/O's first"), ties broken by block index.
  std::vector<QueryPlanBlockFetch> schedule;
  /// True when a registered continuous aggregate answers this exact range
  /// without evaluation: every predicted_* count is 0 and the schedule is
  /// empty — the whole point of standing queries.
  bool aggregate_hit = false;

  /// \brief One JSON object mirroring the fields above (schedule inline),
  /// used by EXPLAIN responses and slow-query log records.
  std::string ToJson() const;
};

/// \brief Re-export of the progressive evaluators' stop/continue control.
using StepControl = propolyne::StepControl;

/// \brief Observer invoked after every block I/O step of a progressive
/// range query. Returning StepControl::kStop ends the evaluation early and
/// the query returns its best partial answer with the current error bound —
/// the resumable hook deadline-aware schedulers are built on.
using ProgressiveObserver =
    std::function<StepControl(const ProgressiveRangeStep&)>;

/// \brief Trajectory of a progressive range query.
struct ProgressiveRangeResult {
  /// One entry per block I/O, estimates refining monotonically in blocks
  /// read. Never empty for a valid query.
  std::vector<ProgressiveRangeStep> steps;
  /// Blocks a run-to-exactness evaluation would read.
  size_t total_blocks_needed = 0;
  /// False when an observer stopped the evaluation before every needed
  /// block was read; the last step then carries a nonzero error bound.
  bool complete = true;
};

/// \brief The integrated system.
///
/// Concurrency contract: AimsSystem holds no lock over its catalog. The
/// const methods (catalog lookups and the whole off-line query path) are
/// safe to call from many threads at once; the mutating methods (ingest,
/// import, recognizer control) require external exclusive
/// synchronization. PrepareIngest needs none at all: it reads only the
/// configuration and the layout table, which has a mutex of its own.
/// Neither does FinishCheckpoint, whose I/O runs beside queries and later
/// ingests.
/// aims::server::ShardedCatalog wraps instances with reader/writer locks
/// to enforce exactly this.
/// \brief One standing ProPolyne range query whose result is incrementally
/// maintained at ingest time (the core half of continuous aggregates; the
/// server's registry owns handles, per-client filtering, and serving).
struct StandingRangeQuery {
  /// Registry-assigned identity, opaque to the core.
  uint64_t handle = 0;
  size_t channel = 0;
  size_t first_frame = 0;
  size_t last_frame = 0;
};

/// \brief One maintained result: the standing query evaluated against a
/// freshly ingested session, bit-identical to what QueryRange would
/// compute from block storage for the same range.
struct StandingRangeUpdate {
  uint64_t handle = 0;
  SessionId session = 0;
  double sum = 0.0;
  double mean = 0.0;
  size_t count = 0;
};

class AimsSystem {
 public:
  explicit AimsSystem(AimsConfig config = {});

  /// \brief Outcome of opening/recovering the durable store, when one is
  /// configured (always OK for the in-memory backend). Constructors cannot
  /// fail, so a failed open parks its status here; every mutating call
  /// refuses while this is non-OK.
  const Status& init_status() const { return init_status_; }

  /// \brief Whether this system runs on the durable backend.
  bool durable() const { return wal_ != nullptr; }

  // ---- Acquisition + storage -------------------------------------------

  /// \brief Ingests a multi-channel recording: PrepareIngest, StageIngest,
  /// WaitDurable, ApplyStaged, FinishCheckpoint — the sequential form of
  /// the staged protocol below, on either backend. Returns once the
  /// ingest's WAL commit (if any) is durable and its pages are on the
  /// device; a failed checkpoint does not fail it. \p trace (optional)
  /// gains the spans of every phase, nesting under whatever span the
  /// caller has open — the storage half of an end-to-end ingest trace.
  /// \p updates (optional) receives one StandingRangeUpdate per registered
  /// standing query that applies to this session — evaluated from the
  /// in-memory coefficients, no block I/O.
  Result<SessionId> IngestRecording(
      const std::string& name, const streams::Recording& recording,
      obs::Trace* trace = nullptr,
      std::vector<StandingRangeUpdate>* updates = nullptr);

  /// \brief A recording transformed for storage but not yet stored: its
  /// raw samples sealed into segments, every channel mean-centred,
  /// zero-padded to a power of two, DWT-transformed and encoded into one
  /// payload per block of its layout. It has no session id and no device
  /// blocks; StageIngest assigns both. PrepareIngest builds one from a
  /// recording, ExportStored from a stored session.
  class PreparedIngest {
   private:
    friend class AimsSystem;
    PreparedIngest() = default;
    struct Channel {
      double mean = 0.0;
      /// Total energy of the coefficients (StoredChannel::energy).
      double energy = 0.0;
      /// Null in an export: the staging system supplies its own layout
      /// for coefficients.size().
      std::shared_ptr<const storage::BlockLayout> layout;
      /// Kept for the standing queries StageIngest evaluates.
      std::vector<double> coefficients;
      /// layout->Encode(coefficients): what StageIngest writes and logs.
      std::vector<std::vector<uint8_t>> payloads;
    };
    SessionInfo info;
    std::vector<Channel> channels;
    storage::tslife::SegmentStore segments;
  };

  /// \brief Phase 0 of the ingest protocol: everything an ingest computes
  /// that needs no lock. Validates the recording, then per channel seals
  /// the raw samples (when the lifecycle is on), centres, pads, runs the
  /// DWT and encodes the block payloads. Reads no mutable state of the
  /// system (the shared layout table has its own mutex), so it may run
  /// concurrently with anything, the exclusive sections included.
  /// InvalidArgument, before any work, for fewer than 2 frames, for frames
  /// with no values, or for frames narrower or wider than frame 0.
  /// \p trace (optional) gains one "seal" (lifecycle on) and one
  /// "transform" span per channel.
  Result<PreparedIngest> PrepareIngest(const std::string& name,
                                       const streams::Recording& recording,
                                       obs::Trace* trace = nullptr) const;

  /// \brief A stored session as the PreparedIngest StageIngest publishes:
  /// the copy step of cross-shard migration, bit-identical to its source.
  /// Reads every block of the session; the info carries no owner, the
  /// sealed segments are copied with their tiers, and each channel keeps
  /// its stored coefficients, mean, energy and block payloads. Const like
  /// the read path, so it runs under a shared lock.
  Result<PreparedIngest> ExportStored(SessionId id) const;

  /// \brief One ingest in flight between the staged phases.
  struct StagedIngest {
    SessionId id = 0;
    /// WAL durability ticket for WaitDurable; 0 when nothing was logged.
    uint64_t ticket = 0;
    /// Device blocks the ingest wrote: parked dirty in the write-back pool
    /// on the durable backend, already on the device without a WAL.
    std::vector<storage::BlockId> blocks;

    /// Whether the ingest logged a WAL commit, so WaitDurable has a sync
    /// to wait for and ApplyStaged has pages to write back. False without
    /// a WAL: staging wrote the blocks through to the device.
    bool logged() const { return ticket != 0; }
  };

  /// \brief Phase 1, the publish step: assigns the session id, allocates
  /// the blocks and Puts the prepared payloads — through to the device on
  /// the in-memory backend, dirty into the write-back pool on the durable
  /// one (no device I/O) — evaluates the standing queries against the
  /// prepared coefficients into \p updates (optional), logs the ingest as
  /// one WAL record group with its commit record when a WAL exists (its
  /// block records carry the prepared payloads), and publishes the catalog
  /// entry. The session is visible to queries from here on. Requires
  /// exclusive synchronization, but never blocks on a sync: the caller
  /// releases its exclusive lock, then calls WaitDurable, so concurrent
  /// ingests can share one group-commit fsync. \p owner (optional) is
  /// stored in the catalog entry (SessionInfo). \p trace (optional) gains
  /// one "block_write" span per channel and, with a WAL, one "wal_append"
  /// span.
  Result<StagedIngest> StageIngest(
      PreparedIngest prepared, obs::Trace* trace = nullptr,
      std::vector<StandingRangeUpdate>* updates = nullptr,
      std::optional<SessionOwner> owner = std::nullopt);

  /// \brief Phase 2: blocks until the staged ingest's commit is on stable
  /// storage; returns at once when nothing was logged. Safe to call
  /// concurrently from many threads (no lock needed); one caller leads the
  /// shared fsync, the rest ride it.
  Status WaitDurable(const StagedIngest& staged);

  /// \brief Phase 3: writes exactly the staged pages back to the page file;
  /// a no-op when nothing was logged. Requires exclusive synchronization.
  /// A failure here loses nothing — the WAL holds the committed group, and
  /// reopening replays it. When the WAL lag has passed
  /// checkpoint_wal_bytes it also begins a checkpoint, doing only what
  /// needs the lock: the WAL rotates to its empty file and the catalog
  /// changes logged since the last checkpoint are set aside as its delta
  /// (or, when compaction is due, the whole catalog is serialized as the
  /// new base). Nothing is begun while one is in flight, while an ingest is
  /// between its phases, or while the pool holds pages a failed write-back
  /// left dirty. FinishCheckpoint does the rest after the lock is released.
  Status ApplyStaged(const StagedIngest& staged);

  /// \brief The I/O of a begun checkpoint, with no lock: the page file is
  /// synced, then the delta is appended to catalog.log and synced (or, when
  /// compacting, the base is rewritten and the log reset), then the WAL
  /// file retired at the rotation is dropped. Returns at once when no
  /// checkpoint is begun or another thread is finishing it. A failure is
  /// logged to stderr and returned, and keeps the retired WAL file and the
  /// delta: the next ingest past the threshold retries from the failed
  /// step. \p trace (optional) gains a "checkpoint" span when it runs.
  Status FinishCheckpoint(obs::Trace* trace = nullptr);

  /// \brief Forces a checkpoint: finishes one in flight, then begins and
  /// finishes one covering the whole WAL, which is empty afterwards.
  /// Requires exclusive synchronization. FailedPrecondition while an
  /// ingest is between its staged phases or the pool holds pages a failed
  /// write-back left dirty — dropping the log then would lose the only
  /// copy of those pages.
  Status Checkpoint();

  /// \brief WAL counters (zero-valued struct on the in-memory backend).
  obs::WalStats WalStats() const;

  /// The write-ahead log, or nullptr on the in-memory backend.
  const storage::durable::WriteAheadLog* wal() const { return wal_.get(); }

  /// \brief Arms the WAL's group-commit sync sections on \p handle (see
  /// WriteAheadLog::SetWatchdog). No-op on the in-memory backend; the
  /// handle must outlive this system.
  void SetWalWatchdog(obs::Watchdog::Handle* handle) {
    if (wal_ != nullptr) wal_->SetWatchdog(handle);
  }

  /// Catalog lookup.
  Result<SessionInfo> GetSession(SessionId id) const;
  std::vector<SessionInfo> ListSessions() const;

  /// \brief The multi-basis transformation report of Sec. 3.1.1, on
  /// demand: per channel, the number of DWPT nodes (depth 6) in the best
  /// basis under AimsConfig::basis_cost, computed from the stored
  /// coefficients (every block of the session is read). Storage itself
  /// always uses the plain DWT, which the lazy-transform queries need.
  Result<std::vector<size_t>> BestBasisReport(SessionId id) const;

  /// \brief The wavelet store of one stored channel. Every store of one
  /// padded length shares one BlockLayout (see LayoutFor).
  Result<const storage::WaveletStore*> ChannelStore(SessionId id,
                                                    size_t channel) const;

  // ---- Raw-sample lifecycle (storage/tslife.h) --------------------------

  /// \brief Segment metadata of one session, in (channel, seq) order.
  /// Empty when the lifecycle is disabled.
  Result<std::vector<storage::tslife::SegmentMeta>> ListSegments(
      SessionId id) const;

  /// \brief Decodes one channel's raw-segment samples, time-ascending.
  /// Bit-exact against the ingested samples while the segments are still
  /// tier 0; downsampled tiers return the retained subset.
  Result<std::vector<gorilla::Sample>> ReadRawSamples(SessionId id,
                                                      size_t channel) const;

  /// \brief Total sealed-segment bytes across all sessions (the
  /// aims_tslife_bytes gauge).
  size_t SegmentBytes() const;

  /// \brief One retention sweep over every session: segments older than
  /// the policy's tiers are downsampled (NMSE-bounded, recorded per
  /// segment) or dropped, oldest-first under the byte budget. \p now_us
  /// is the sweep's clock (injectable — ages are measured against data
  /// time). Durable backend: the whole sweep commits as one WAL record
  /// group before the in-memory state changes. Requires exclusive
  /// synchronization.
  /// \p sessions (optional) restricts the sweep to those local session
  /// ids — how the server applies per-tenant policies. Null sweeps all.
  Result<storage::tslife::SweepStats> SweepRetention(
      const storage::tslife::RetentionPolicy& policy, int64_t now_us,
      const std::vector<SessionId>* sessions = nullptr);

  // ---- Continuous aggregates (core half) --------------------------------

  /// \brief Replaces the set of standing range queries evaluated at every
  /// ingest (see StandingRangeQuery). Requires exclusive synchronization,
  /// like the ingests that read the set.
  void SetStandingQueries(std::vector<StandingRangeQuery> queries);
  const std::vector<StandingRangeQuery>& standing_queries() const {
    return standing_queries_;
  }

  // ---- Off-line query ---------------------------------------------------

  /// \brief Reconstructs one channel (exact, reads all its blocks).
  Result<std::vector<double>> ReadChannel(SessionId id, size_t channel) const;

  /// \brief SUM/AVERAGE over a frame range, evaluated in the wavelet domain
  /// from only the O(lg n) coefficients the lazy transform selects, reading
  /// only the blocks that hold them.
  Result<RangeStatistics> QueryRange(SessionId id, size_t channel,
                                     size_t first_frame,
                                     size_t last_frame) const;

  /// \brief Progressive variant of QueryRange: fetches the needed blocks in
  /// decreasing query-energy order and reports the running estimate with a
  /// guaranteed bound after every block — the Fig. 4 experience, served
  /// from block storage (Sec. 3.2.1's "most valuable I/O's first").
  /// \p observer (optional) runs after every block I/O and may stop the
  /// evaluation early; the result then reports `complete == false` with the
  /// partial trajectory. Const and lock-free like the rest of the read
  /// path, so schedulers can run it under a shard's shared lock.
  Result<ProgressiveRangeResult> QueryRangeProgressive(
      SessionId id, size_t channel, size_t first_frame, size_t last_frame,
      const ProgressiveObserver& observer = {}) const;

  /// \brief EXPLAIN: computes the plan a QueryRangeProgressive evaluation
  /// of the same range would follow — query coefficients, wavelet levels,
  /// the block schedule in refinement order, and the DiskCostModel's
  /// predicted I/O cost — without reading a single block. Same validation
  /// and determinism as the evaluation itself, so predicted and actual
  /// block counts reconcile exactly on a complete run.
  Result<QueryPlan> PlanRangeQuery(SessionId id, size_t channel,
                                   size_t first_frame,
                                   size_t last_frame) const;

  /// \brief How BuildChannelCube buckets a channel into a ProPolyne cube.
  struct CubeSpec {
    size_t channel = 0;
    size_t time_buckets = 64;   ///< Power of two.
    size_t value_buckets = 64;  ///< Power of two.
    /// Value range mapped onto the buckets; when lo == hi the range is
    /// taken from the data (min/max across the selected sessions).
    double value_lo = 0.0;
    double value_hi = 0.0;
  };

  /// \brief Builds the (session, time-bucket, value-bucket) frequency cube
  /// for one channel across the given sessions — the paper's off-line
  /// analysis substrate ("polynomial range-sum queries" over collected
  /// immersidata, Sec. 2.1). Channels are read back through block storage.
  /// The session dimension is padded to a power of two; sessions beyond
  /// the list contribute nothing.
  Result<propolyne::DataCube> BuildChannelCube(
      const std::vector<SessionId>& ids, const CubeSpec& spec) const;

  /// Device-level I/O counters (shared across sessions).
  const storage::BlockDevice& device() const { return *device_; }
  storage::BlockDevice* mutable_device() { return device_.get(); }

  /// The block cache over the device, or nullptr when the config disabled
  /// it (block_cache.capacity_bytes == 0).
  const storage::BlockCache* block_cache() const { return cache_.get(); }
  storage::BlockCache* mutable_block_cache() { return cache_.get(); }

  // ---- On-line query ----------------------------------------------------

  /// \brief Registers a motion template for online recognition. Fails with
  /// FailedPrecondition while a recognizer is running (the recognizer holds
  /// a pointer into the vocabulary, which must stay immutable); call
  /// StopRecognizer first. InvalidArgument for an empty template, one with
  /// fewer than 2 frames, or one whose channel count differs from the
  /// registered templates'.
  Status AddVocabularyEntry(std::string label, linalg::Matrix segment);

  /// \brief Starts (or restarts) the online recognizer with the registered
  /// vocabulary.
  Status StartRecognizer(recognition::StreamRecognizerConfig config = {});

  /// \brief Stops the recognizer (if running), making the vocabulary
  /// mutable again. Pending stream state is discarded; call
  /// FinishLiveStream first to flush it.
  void StopRecognizer();

  /// \brief Feeds one live frame; returns an event when a motion was just
  /// isolated and recognized. InvalidArgument when the frame's channel
  /// count differs from the vocabulary's.
  Result<std::optional<recognition::RecognitionEvent>> PushLiveFrame(
      const streams::Frame& frame);

  /// \brief Flushes the recognizer at end of stream.
  Result<std::optional<recognition::RecognitionEvent>> FinishLiveStream();

  const recognition::Vocabulary& vocabulary() const { return vocabulary_; }

 private:
  struct StoredChannel {
    std::unique_ptr<storage::WaveletStore> store;
    double mean = 0.0;
    size_t padded_len = 0;
    /// Total energy of the stored (mean-centered) coefficients; the
    /// progressive bound's data-side term.
    double energy = 0.0;
  };
  struct StoredSession {
    SessionInfo info;
    std::vector<StoredChannel> channels;
    /// Sealed raw-sample segments (empty when the lifecycle is disabled).
    storage::tslife::SegmentStore segments;
  };

  /// The layout every stored channel of \p padded_len shares: subtree
  /// tiling at the configured block size, built on first use. Guarded by
  /// layouts_mutex_, so PrepareIngest may call it without the caller's
  /// exclusive lock.
  std::shared_ptr<const storage::BlockLayout> LayoutFor(
      size_t padded_len) const;
  /// Logs \p session's blocks (\p prepared's payloads under the device
  /// ids the stores were given, in staged->blocks order), its catalog
  /// entry, and its segments as one WAL record group and appends the
  /// commit record (durable backend).
  Status LogSession(const StoredSession& session,
                    const PreparedIngest& prepared, StagedIngest* staged);
  /// The stored channel's padded coefficient vector: every block read.
  Result<std::vector<double>> ReadCoefficients(
      const StoredChannel& stored) const;
  /// The stored channel's mean-centred, padded samples: ReadCoefficients,
  /// then the inverse DWT.
  Result<std::vector<double>> ReadCentered(const StoredChannel& stored) const;
  /// What every range query starts from: the channel it reads and the
  /// lazy transform's query coefficients for its frame range.
  struct RangeQueryInput {
    const StoredChannel* stored = nullptr;
    signal::SparseCoefficients query;
  };
  /// The session, channel and frame-range checks and the lazy transform
  /// that PlanRangeQuery, QueryRange and QueryRangeProgressive share; \p op
  /// prefixes the error messages.
  Result<RangeQueryInput> StartRangeQuery(const char* op, SessionId id,
                                          size_t channel, size_t first_frame,
                                          size_t last_frame) const;
  /// Why a checkpoint may not begin right now (OK when it may).
  Status CheckpointBlocker() const;
  /// The locked half of a checkpoint (see ApplyStaged). OK without
  /// beginning one when one is already begun.
  Status BeginCheckpoint();
  /// Runs the begun checkpoint's I/O (see FinishCheckpoint). With \p wait
  /// it first waits for another thread finishing one, and retries it if
  /// that failed.
  Status RunCheckpoint(obs::Trace* trace, bool wait);
  /// Writes \p base over catalog.snap durably, then resets catalog.log.
  Status Compact(const std::vector<uint8_t>& base);
  /// Starts the next delta record: the frame's room and the txn slot.
  void ResetDelta();
  /// Appends one catalog entry or segment op to the next delta record.
  void AddDeltaItem(uint8_t kind, const std::vector<uint8_t>& blob);
  /// Applies one catalog.log record unless the base or an earlier record
  /// already covers its txn.
  Status ApplyDelta(std::span<const uint8_t> record);
  /// Applies one decoded segment op (put/drop) to the session it names.
  Status ApplySegmentOp(const storage::tslife::SegmentOp& op);
  /// Commits \p ops as one WAL record group (durable backend; no-op list
  /// allowed) and applies them to the in-memory stores.
  Status CommitSegmentOps(const std::vector<storage::tslife::SegmentOp>& ops);
  /// Opens or recovers the durable store (ctor helper; result goes to
  /// init_status_).
  Status OpenDurable();
  /// Serializes one session's catalog entry for the WAL / snapshot.
  std::vector<uint8_t> SerializeSession(const StoredSession& session) const;
  /// Appends the session a serialized catalog entry describes, attaching
  /// its WaveletStores to already-written device blocks.
  Status ApplyCatalogBlob(std::span<const uint8_t> blob);
  /// The whole catalog as a base snapshot (format v2, CRC-sealed).
  std::vector<uint8_t> SerializeSnapshot() const;
  /// Loads the catalog base, if one exists, with one sized read.
  Status LoadSnapshot();

  AimsConfig config_;
  signal::WaveletFilter filter_;
  std::unique_ptr<storage::BlockDevice> device_;
  /// Declared after device_ (construction order): the cache fronts it.
  std::unique_ptr<storage::BlockCache> cache_;
  /// Downcast alias of device_ on the durable backend (for SyncPages).
  storage::durable::FileBlockDevice* file_device_ = nullptr;
  std::unique_ptr<storage::durable::WriteAheadLog> wal_;
  /// Delta records since the base (durable backend). Only OpenDurable and
  /// the thread running a checkpoint touch it.
  std::unique_ptr<storage::durable::CatalogLog> catalog_log_;
  Status init_status_;
  /// Logged ingests between StageIngest and the end of ApplyStaged;
  /// checkpoints are refused while nonzero (their pages may be dirty or
  /// their commits not yet durable).
  std::atomic<size_t> pending_commits_{0};
  /// Largest transaction id whose effects are in sessions_ — recorded in
  /// the base and in each delta record, so recovery applies only younger
  /// deltas and WAL groups (a crash before the log they came from is
  /// dropped must not double-apply).
  uint64_t applied_txn_ = 0;
  /// The next delta record: room for its frame, the txn it will cover,
  /// then every catalog entry and segment op committed since the last
  /// checkpoint began, in commit order (exclusive-lock domain).
  std::vector<uint8_t> delta_;
  /// Bytes of segment ops in the base, the log and delta_ that a later op
  /// replaced or dropped, and of the drops themselves: what compaction
  /// would reclaim (exclusive-lock domain).
  uint64_t dead_bytes_ = 0;

  /// A checkpoint between its locked and unlocked halves.
  struct CheckpointWork {
    /// The framed delta record, or the new base when compacting.
    std::vector<uint8_t> bytes;
    bool compact = false;
    /// Set once the record or base is durable: a retry only drops the
    /// retired WAL file.
    bool written = false;
  };
  std::mutex checkpoint_mutex_;
  std::condition_variable checkpoint_cv_;
  /// The begun checkpoint (guarded by checkpoint_mutex_; while
  /// checkpoint_running_, only the thread running it touches it).
  std::optional<CheckpointWork> checkpoint_;
  bool checkpoint_running_ = false;
  /// Bytes of catalog.snap and catalog.log (guarded by checkpoint_mutex_).
  uint64_t base_bytes_ = 0;
  uint64_t log_bytes_ = 0;
  std::vector<StoredSession> sessions_;
  /// Padded channel length -> the layout its stores share.
  mutable std::mutex layouts_mutex_;
  mutable std::map<size_t, std::shared_ptr<const storage::BlockLayout>>
      layouts_;
  /// Standing queries evaluated at every ingest (exclusive-lock domain,
  /// like sessions_).
  std::vector<StandingRangeQuery> standing_queries_;

  recognition::Vocabulary vocabulary_;
  recognition::WeightedSvdSimilarity measure_;
  std::unique_ptr<recognition::StreamRecognizer> recognizer_;
};

}  // namespace aims::core
