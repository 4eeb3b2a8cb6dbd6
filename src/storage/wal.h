#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/wal_stats.h"
#include "obs/watchdog.h"
#include "storage/block_device.h"

/// \file wal.h
/// \brief Redo-only write-ahead log with atomic record groups and group
/// commit. Every durable mutation (an ingest's block payloads plus its
/// catalog entry) is logged as one transaction — begin, payload records,
/// commit — each record CRC-32 framed. A commit is acknowledged only after
/// the log is synced to stable storage; recovery at Open replays committed
/// groups in commit order and discards the torn tail and any group that
/// never reached its commit record. The page file is no-steal: no data
/// page is written before its group's commit record is durable, so redo
/// records are sufficient and undo is never needed.
///
/// Rotation: a log opened with a second file appends to one of the two
/// and keeps the other empty. A checkpoint rotates the appends over to the
/// empty file (Rotate), makes the retired file's effects durable elsewhere,
/// then drops it (DropRetired), so the slow steps of a checkpoint run
/// beside new commits instead of in front of them. Recovery scans both
/// files and replays the older file's groups first.
///
/// Group commit: when `group_commit_ms > 0`, the first committer to need a
/// sync becomes the leader, waits out the window so concurrent commits can
/// append behind it, then performs ONE fsync covering all of them — the
/// classic throughput lever when fsync dominates ingest (high-rate
/// acquisition, Sec. 2.1).
///
/// On-disk layout (host byte order, like the page file):
///
///   offset 0    file header: magic u32 ("AWL2"), CRC-32 of the mark
///               u32, txn-id high-water mark u64 (written whenever a file
///               is emptied, so ids never restart once their records are
///               gone; a mark failing its CRC is ignored, and so is a
///               version-1 ("AWAL") header's, which had no CRC)
///   then        records: crc u32 (over everything after it), type u8,
///               pad u8[3], txn_id u64, payload_size u32, payload bytes
///
/// Append calls are thread-safe (serialized internally); WaitDurable may
/// be called from many threads at once — that is the whole point.

namespace aims::storage::durable {

/// \brief How (whether) commits are forced to stable storage.
enum class WalSyncMode {
  /// fsync the log on every commit (batched under group commit) — the
  /// durable default: an acknowledged commit survives power loss.
  kFsync,
  /// Never sync: commits are acknowledged once appended to the OS page
  /// cache. Survives process crash (the kill tests) but not power loss;
  /// for benchmarks isolating the sync cost.
  kNone,
};

/// \brief Tuning of one WriteAheadLog.
struct WalConfig {
  WalSyncMode sync_mode = WalSyncMode::kFsync;
  /// Group-commit window: how long a sync leader waits for concurrent
  /// commits to pile in before issuing the shared fsync. 0 syncs each
  /// commit immediately (still one fsync may cover several commits when
  /// they race, but nobody waits on purpose).
  double group_commit_ms = 0.0;
  /// Modeled extra latency per physical sync, serialized with the fsync —
  /// stands in for real sync cost on hosts where fsync is nearly free
  /// (tmpfs), so group-commit experiments measure a realistic ratio.
  double simulated_sync_ms = 0.0;
};

/// \brief One committed transaction reconstructed by recovery.
struct RecoveredTxn {
  uint64_t txn_id = 0;
  /// Block writes in append order: (device block id, payload).
  std::vector<std::pair<BlockId, std::vector<uint8_t>>> block_puts;
  /// Opaque catalog mutations in append order (serialized by the core
  /// layer; the WAL does not interpret them).
  std::vector<std::vector<uint8_t>> catalog_blobs;
  /// Opaque raw-segment mutations in append order (serialized by the
  /// tslife layer; the WAL does not interpret them either).
  std::vector<std::vector<uint8_t>> segment_blobs;
};

/// \brief The write-ahead log (see the file comment for the contract).
class WriteAheadLog {
 public:
  /// \brief Result of Open: the log plus every committed transaction the
  /// existing file contained, in commit order. The caller replays them
  /// (writing pages, applying catalog blobs), makes the pages durable, and
  /// then calls Truncate — recovery effects must be on stable storage
  /// before the records that produced them are dropped.
  struct Opened {
    std::unique_ptr<WriteAheadLog> wal;
    std::vector<RecoveredTxn> committed;
  };

  /// \brief Opens (creating if absent) the log at \p path, scanning any
  /// existing records. A torn tail — an incomplete or checksum-failing
  /// record — is truncated off; groups without a commit record are
  /// dropped. Both show up in Stats() as discarded bytes. With a
  /// \p rotate_path the log has a second file there (created empty if
  /// absent) and supports Rotate; `committed` then holds both files'
  /// groups, the older file's first. Appends go to the file holding the
  /// newer records.
  static Result<Opened> Open(const std::string& path, WalConfig config = {},
                             const std::string& rotate_path = {});

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// \brief Starts a record group; returns its transaction id.
  /// ResourceExhausted once the ids run out (only a record whose
  /// CRC-valid txn id claims the last id gets there).
  Result<uint64_t> BeginTxn();

  /// \brief Logs one block write (the payload that will reach device block
  /// \p id once the group commits).
  Status AppendBlockPut(uint64_t txn_id, BlockId id,
                        const std::vector<uint8_t>& payload);

  /// \brief Logs one opaque catalog mutation for the group.
  Status AppendCatalog(uint64_t txn_id, const std::vector<uint8_t>& blob);

  /// \brief Logs one opaque raw-segment mutation (a sealed Gorilla segment
  /// put, or a retention drop) for the group. Older binaries scanning a
  /// log with these records simply skip them (unknown-type tolerance).
  Status AppendSegment(uint64_t txn_id, const std::vector<uint8_t>& blob);

  /// \brief Appends the group's commit record and returns a durability
  /// ticket for WaitDurable. Split from the wait so callers can release
  /// exclusive resources (the shard lock) before blocking — which is what
  /// lets concurrent commits share one group-commit fsync.
  Result<uint64_t> AppendCommit(uint64_t txn_id);

  /// \brief Blocks until every commit up to \p ticket is on stable storage
  /// (per the sync mode). Safe — and intended — to be called from many
  /// threads concurrently; one becomes the sync leader, the rest ride its
  /// fsync.
  Status WaitDurable(uint64_t ticket);

  /// \brief AppendCommit + WaitDurable, for single-threaded callers.
  Status Commit(uint64_t txn_id);

  /// \brief Empties the log, both files of a rotating one. Ids issued
  /// afterwards are above \p applied_txn, the highest id whose effects the
  /// caller holds (a catalog mark above the log's own comes only from
  /// damaged files). Caller contract: every committed group's effects are
  /// already on stable storage (pages synced, catalog written) and no
  /// transaction is in flight.
  Status Truncate(uint64_t applied_txn = 0);

  /// \brief Switches appends to the second file, which must be empty; the
  /// file appended to so far is retired, keeping its groups until
  /// DropRetired. Commits appended before the switch are synced first (a
  /// no-op when every one was already waited for), so a later sync of the
  /// new file never has to cover the old one. Caller contract: no
  /// transaction is between BeginTxn and AppendCommit. FailedPrecondition
  /// without a second file, or while a retired file is still held.
  Status Rotate();

  /// \brief Empties the retired file, which becomes the next Rotate's
  /// target; a no-op without one. Caller contract: every group in it has
  /// its effects on stable storage. Runs beside appends to the other file
  /// (not beside Rotate or Truncate).
  Status DropRetired();

  /// \brief Bytes of committed-but-not-checkpointed log — the WAL lag:
  /// the records in both files, the retired one's until it is dropped.
  uint64_t lag_bytes() const;

  /// \brief Snapshot of the accounting counters (the aims_wal_* family).
  obs::WalStats Stats() const;

  /// \brief Heartbeat slot armed around each sync leader's group-commit
  /// episode (window sleep + fsync), so a wedged fsync is a watchdog
  /// stall, not a silent hang. May be null (default); the handle must
  /// outlive the log. Scoped arming composes across shards sharing one
  /// handle — concurrent leaders each add to the arm count.
  void SetWatchdog(obs::Watchdog::Handle* handle) {
    watchdog_.store(handle, std::memory_order_release);
  }

  const std::string& path() const { return files_[0].path; }
  const WalConfig& config() const { return config_; }

 private:
  /// One log file; a rotating log has two.
  struct File {
    std::string path;
    int fd = -1;
  };

  explicit WriteAheadLog(WalConfig config) : config_(config) {}

  /// Builds and appends one framed record; updates size/record counters.
  Status AppendRecord(uint8_t type, uint64_t txn_id, const uint8_t* payload,
                      size_t payload_size);
  /// Appends one framed record to the active file; append_mutex_ held.
  Status AppendLocked(const std::vector<uint8_t>& rec);
  /// Writes the txn-id high-water mark into file \p index's header, then
  /// cuts the file back to its header, syncing both steps.
  Status EmptyFile(size_t index, uint64_t high_water);
  /// Stores both files' record bytes in lag_bytes_; append_mutex_ held.
  void PublishLag();

  File files_[2];
  size_t num_files_ = 1;
  WalConfig config_;

  /// Serializes appends (one writer at a time keeps records contiguous).
  /// Rotate holds it together with sync_mutex_, so the active file may be
  /// read under either.
  std::mutex append_mutex_;
  size_t active_ = 0;        ///< Index of the file appends go to.
  uint64_t file_size_ = 0;   ///< Of the active file; guarded by append_mutex_.
  uint64_t next_txn_ = 1;    ///< Guarded by append_mutex_.
  /// Whether the other file holds groups (it is retired) and how many
  /// record bytes; guarded by append_mutex_.
  bool retired_ = false;
  uint64_t retired_bytes_ = 0;

  /// Commit tickets: appended_commits_ is published by AppendCommit (under
  /// append_mutex_) and read by the sync leader without it.
  std::atomic<uint64_t> appended_commits_{0};

  /// Group-commit state, guarded by sync_mutex_.
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;
  uint64_t synced_commits_ = 0;
  /// Sticky sync failure: once an fsync fails the log stops acknowledging.
  Status sync_error_;

  /// Accounting (relaxed atomics; read by Stats from any thread).
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> max_commits_per_sync_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> lag_bytes_{0};
  std::atomic<uint64_t> checkpoints_{0};
  obs::WalStats recovery_;  ///< recovered_*/discarded from Open, immutable.

  /// Set at wiring time, read by sync leaders (see SetWatchdog).
  std::atomic<obs::Watchdog::Handle*> watchdog_{nullptr};
};

/// \brief The catalog delta log: an append-only file of CRC-framed
/// records, each synced (fdatasync) before Append returns. The core layer
/// defines the payloads (one checkpoint's catalog changes each); this
/// class frames, scans and resets them.
///
/// On-disk layout (host byte order): magic u32, version u32, then
/// records: payload_size u32, crc u32 (CRC-32 of the payload), payload.
///
/// Not thread-safe: one checkpoint at a time appends to it.
class CatalogLog {
 public:
  /// Bytes a record's frame adds in front of its payload.
  static constexpr size_t kFrameBytes = 8;

  /// \brief Opens (creating if absent) the log at \p path with one sized
  /// read, and hands every intact record's payload, in order, to \p visit.
  /// A last record cut short or failing its checksum is a torn append: it
  /// is cut off the file, unvisited. A damaged record
  /// with more bytes after it is IoError, as is a wrong header. A visit
  /// error ends the open with that status.
  static Result<std::unique_ptr<CatalogLog>> Open(
      const std::string& path,
      const std::function<Status(std::span<const uint8_t>)>& visit);

  ~CatalogLog();
  CatalogLog(const CatalogLog&) = delete;
  CatalogLog& operator=(const CatalogLog&) = delete;

  /// \brief Appends one record and syncs it. \p framed holds kFrameBytes
  /// of room, then the payload; Append fills the frame in place. After a
  /// failure the log's end is unchanged, so a retry overwrites whatever
  /// part of the record reached the file.
  Status Append(std::vector<uint8_t>* framed);

  /// \brief Cuts the log back to its header, synced.
  Status Reset();

  /// Bytes of the log (header and records), torn bytes excluded.
  uint64_t size_bytes() const { return size_; }

 private:
  CatalogLog(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

namespace testing {

/// \brief The steps of a checkpoint (core/aims.h) a test can stop at.
enum class CheckpointStep {
  /// Under the exclusive lock, right after the WAL rotated.
  kWalRotated,
  /// Off the lock, once the page file is synced.
  kPagesSynced,
  /// Inside CatalogLog::Append, with half the delta record written (a
  /// crash here leaves a torn record).
  kDeltaAppend,
  /// Once the delta record is synced, before the retired WAL file is
  /// dropped.
  kDeltaDurable,
  /// In a compaction, once the new base has been renamed into place and
  /// before the catalog log is reset.
  kBaseRenamed,
};

/// \brief Dies (SIGKILL) the next time a checkpoint reaches \p step;
/// std::nullopt disarms. Only the crash helper binary arms this.
void SetCrashAtCheckpointStep(std::optional<CheckpointStep> step);
/// \brief Runs \p hook on the checkpointing thread at every step it
/// reaches, before any armed crash; an empty function disarms. Lets a test
/// hold a checkpoint between two steps.
void SetCheckpointStepHook(std::function<void(CheckpointStep)> hook);
/// \brief Called by the checkpoint at each step: runs the hook, then dies
/// if a crash is armed there.
void ReachCheckpointStep(CheckpointStep step);

/// \brief Crash hooks for the kill-the-process recovery tests. Each
/// arms a point inside the commit path at which the *current process*
/// raises SIGKILL — no cleanup, no flush, exactly what a power cut looks
/// like to the file system. Only the crash helper binary arms these.

/// After \p count more payload (block/catalog/segment) records are
/// appended, die mid-group. Negative disarms.
void SetCrashAfterPayloadAppends(int count);
/// After \p count more segment records specifically are appended, die
/// mid-segment-seal. Negative disarms.
void SetCrashAfterSegmentAppends(int count);
/// Die at the next AppendCommit, before the commit record is written.
void SetCrashBeforeCommitAppend(bool enabled);
/// Die right after the next commit becomes durable, before the caller can
/// apply pages or acknowledge — the post-commit-pre-checkpoint point.
void SetCrashAfterCommitDurable(bool enabled);

}  // namespace testing

}  // namespace aims::storage::durable
