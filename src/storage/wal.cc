#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/crc32.h"
#include "common/macros.h"

namespace aims::storage::durable {

namespace {

// File header: magic u32 | crc u32 of the mark | mark u64, the highest
// txn id issued, written whenever a file is emptied so ids keep advancing
// once the records are gone. Version 1 ("AWAL", then the version number 1
// where the CRC now sits) had no check on its mark.
constexpr uint32_t kWalMagic = 0x324C5741u;    // "AWL2"
constexpr uint32_t kWalMagicV1 = 0x4C415741u;  // "AWAL"
constexpr uint64_t kFileHeaderSize = 16;
constexpr size_t kHeaderCrcOffset = 4;
constexpr size_t kTxnHighWaterOffset = 8;

// Record framing: crc u32 | type u8 | pad u8[3] | txn_id u64 |
// payload_size u32 | payload. The CRC covers everything after itself.
constexpr size_t kRecordHeaderSize = 20;
constexpr size_t kCrcOffset = 0;
constexpr size_t kTypeOffset = 4;
constexpr size_t kTxnOffset = 8;
constexpr size_t kSizeOffset = 16;
/// Upper bound on one record's payload — a scan-time sanity check so a
/// corrupt length field cannot make recovery allocate gigabytes.
constexpr uint32_t kMaxRecordPayload = 1u << 30;

/// Never issued: BeginTxn refuses once the ids reach it, so an id never
/// wraps below the ones a catalog has already applied.
constexpr uint64_t kNoTxnId = ~uint64_t{0};

uint64_t NextTxnAfter(uint64_t id) { return id == kNoTxnId ? id : id + 1; }

/// A file header whose mark is \p high_water.
std::array<uint8_t, kFileHeaderSize> FileHeader(uint64_t high_water) {
  std::array<uint8_t, kFileHeaderSize> header{};
  std::memcpy(header.data(), &kWalMagic, sizeof(kWalMagic));
  std::memcpy(header.data() + kTxnHighWaterOffset, &high_water,
              sizeof(high_water));
  const uint32_t crc = Crc32(header.data() + kTxnHighWaterOffset,
                             sizeof(high_water));
  std::memcpy(header.data() + kHeaderCrcOffset, &crc, sizeof(crc));
  return header;
}

constexpr uint8_t kBegin = 1;
constexpr uint8_t kBlockPut = 2;
constexpr uint8_t kCatalog = 3;
constexpr uint8_t kCommit = 4;
constexpr uint8_t kSegment = 5;

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status PwriteFully(int fd, const void* data, size_t len, uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pwrite(fd, p + done, len - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("WriteAheadLog: pwrite failed");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadWholeFile(int fd, uint64_t size) {
  std::vector<uint8_t> buf(size);
  size_t done = 0;
  while (done < buf.size()) {
    ssize_t n = ::pread(fd, buf.data() + done, buf.size() - done,
                        static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("WriteAheadLog: pread failed");
    }
    if (n == 0) {
      buf.resize(done);
      break;
    }
    done += static_cast<size_t>(n);
  }
  return buf;
}

template <typename T>
T LoadField(const uint8_t* base, size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

// ---- Crash hooks (see wal.h) ---------------------------------------------
std::atomic<int> g_crash_after_payload_appends{-1};
std::atomic<int> g_crash_after_segment_appends{-1};
std::atomic<bool> g_crash_before_commit_append{false};
std::atomic<bool> g_crash_after_commit_durable{false};
/// The armed testing::CheckpointStep, or -1.
std::atomic<int> g_crash_at_checkpoint_step{-1};
std::mutex g_step_hook_mutex;
std::function<void(testing::CheckpointStep)> g_step_hook;

/// Dies like a power cut: no atexit, no buffers flushed, no destructors.
[[noreturn]] void CrashNow() {
  std::raise(SIGKILL);
  std::abort();  // unreachable; SIGKILL cannot be handled
}

bool CrashArmedAt(testing::CheckpointStep step) {
  return g_crash_at_checkpoint_step.load(std::memory_order_relaxed) ==
         static_cast<int>(step);
}

void MaybeCrashAfterPayloadAppend() {
  if (g_crash_after_payload_appends.load(std::memory_order_relaxed) < 0) {
    return;
  }
  if (g_crash_after_payload_appends.fetch_sub(1, std::memory_order_relaxed) ==
      1) {
    CrashNow();
  }
}

void MaybeCrashAfterSegmentAppend() {
  if (g_crash_after_segment_appends.load(std::memory_order_relaxed) < 0) {
    return;
  }
  if (g_crash_after_segment_appends.fetch_sub(1, std::memory_order_relaxed) ==
      1) {
    CrashNow();
  }
}

}  // namespace

namespace testing {

void SetCrashAfterPayloadAppends(int count) {
  g_crash_after_payload_appends.store(count, std::memory_order_relaxed);
}
void SetCrashAfterSegmentAppends(int count) {
  g_crash_after_segment_appends.store(count, std::memory_order_relaxed);
}
void SetCrashBeforeCommitAppend(bool enabled) {
  g_crash_before_commit_append.store(enabled, std::memory_order_relaxed);
}
void SetCrashAfterCommitDurable(bool enabled) {
  g_crash_after_commit_durable.store(enabled, std::memory_order_relaxed);
}

void SetCrashAtCheckpointStep(std::optional<CheckpointStep> step) {
  g_crash_at_checkpoint_step.store(step ? static_cast<int>(*step) : -1,
                                   std::memory_order_relaxed);
}

void SetCheckpointStepHook(std::function<void(CheckpointStep)> hook) {
  std::lock_guard<std::mutex> lock(g_step_hook_mutex);
  g_step_hook = std::move(hook);
}

void ReachCheckpointStep(CheckpointStep step) {
  std::function<void(CheckpointStep)> hook;
  {
    std::lock_guard<std::mutex> lock(g_step_hook_mutex);
    hook = g_step_hook;
  }
  if (hook) hook(step);
  if (CrashArmedAt(step)) CrashNow();
}

}  // namespace testing

namespace {

/// One log file as Open found it.
struct ScannedFile {
  int fd = -1;
  /// Committed groups in commit order.
  std::vector<RecoveredTxn> committed;
  uint64_t committed_records = 0;
  /// End of the last intact record (the torn tail is cut off here).
  uint64_t end = kFileHeaderSize;
  uint64_t max_txn = 0;
  uint64_t discarded_bytes = 0;
};

/// Opens (creating with a synced header if empty) and scans one log file.
Result<ScannedFile> OpenAndScan(const std::string& path) {
  ScannedFile file;
  file.fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (file.fd < 0) {
    return ErrnoError("WriteAheadLog::Open: cannot open " + path);
  }
  auto fail = [&](Status status) {
    ::close(file.fd);
    return status;
  };
  struct stat st{};
  if (::fstat(file.fd, &st) != 0) {
    return fail(ErrnoError("WriteAheadLog::Open: fstat " + path));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size == 0) {
    const auto header = FileHeader(0);
    Status status = PwriteFully(file.fd, header.data(), header.size(), 0);
    if (status.ok() && ::fsync(file.fd) != 0) {
      status = ErrnoError("WriteAheadLog::Open: fsync " + path);
    }
    if (!status.ok()) return fail(status);
    return file;
  }

  Result<std::vector<uint8_t>> read = ReadWholeFile(file.fd, file_size);
  if (!read.ok()) return fail(read.status());
  const std::vector<uint8_t>& buf = *read;
  const bool has_header = buf.size() >= kFileHeaderSize;
  const uint32_t magic = has_header ? LoadField<uint32_t>(buf.data(), 0) : 0;
  const uint32_t check =
      has_header ? LoadField<uint32_t>(buf.data(), kHeaderCrcOffset) : 0;
  if (magic != kWalMagic && !(magic == kWalMagicV1 && check == 1)) {
    return fail(Status::InvalidArgument(
        "WriteAheadLog::Open: not a WAL file: " + path));
  }
  // A mark without a valid CRC is not trusted: the ids then come from the
  // records, each under its own CRC, and from the caller's applied mark
  // (Truncate), so a damaged mark can neither exhaust the ids nor let them
  // fall back to one recovery would skip as applied.
  if (magic == kWalMagic &&
      check == Crc32(buf.data() + kTxnHighWaterOffset, sizeof(uint64_t))) {
    file.max_txn = LoadField<uint64_t>(buf.data(), kTxnHighWaterOffset);
  }

  // Scan: valid records accumulate into per-transaction pending groups; a
  // commit record promotes its group to the committed list. The first
  // incomplete or checksum-failing record marks the torn tail — everything
  // from there on is a casualty of the crash and is truncated off.
  struct Pending {
    RecoveredTxn txn;
    uint64_t bytes = 0;
    uint64_t records = 0;
  };
  std::unordered_map<uint64_t, Pending> pending;
  uint64_t pos = kFileHeaderSize;
  while (pos + kRecordHeaderSize <= buf.size()) {
    const uint8_t* rec = buf.data() + pos;
    const uint32_t stored_crc = LoadField<uint32_t>(rec, kCrcOffset);
    const uint8_t type = rec[kTypeOffset];
    const uint64_t txn_id = LoadField<uint64_t>(rec, kTxnOffset);
    const uint32_t payload_size = LoadField<uint32_t>(rec, kSizeOffset);
    if (payload_size > kMaxRecordPayload ||
        pos + kRecordHeaderSize + payload_size > buf.size()) {
      break;  // torn tail: length field garbage or record cut short
    }
    const uint32_t crc = Crc32(rec + kTypeOffset,
                               kRecordHeaderSize - kTypeOffset + payload_size);
    if (crc != stored_crc) break;  // torn tail: record content damaged
    const uint8_t* payload = rec + kRecordHeaderSize;
    const uint64_t record_bytes = kRecordHeaderSize + payload_size;
    if (txn_id > file.max_txn) file.max_txn = txn_id;
    Pending& group = pending[txn_id];
    group.txn.txn_id = txn_id;
    group.bytes += record_bytes;
    group.records += 1;
    switch (type) {
      case kBegin:
        break;
      case kBlockPut: {
        if (payload_size < sizeof(uint32_t)) break;  // malformed; skip
        const BlockId id = LoadField<uint32_t>(payload, 0);
        group.txn.block_puts.emplace_back(
            id, std::vector<uint8_t>(payload + sizeof(uint32_t),
                                     payload + payload_size));
        break;
      }
      case kCatalog:
        group.txn.catalog_blobs.emplace_back(payload, payload + payload_size);
        break;
      case kSegment:
        group.txn.segment_blobs.emplace_back(payload, payload + payload_size);
        break;
      case kCommit: {
        file.committed_records += group.records;
        file.committed.push_back(std::move(group.txn));
        pending.erase(txn_id);
        break;
      }
      default:
        break;  // unknown type from a future version: ignore the record
    }
    pos += record_bytes;
  }

  const uint64_t torn_bytes = buf.size() - pos;
  uint64_t uncommitted_bytes = 0;
  for (const auto& [txn_id, group] : pending) uncommitted_bytes += group.bytes;
  if (torn_bytes > 0) {
    // Physically remove the torn tail so later appends never interleave
    // with garbage. Uncommitted-but-intact records can stay: replay
    // ignores them and the next checkpoint truncation sweeps them away.
    if (::ftruncate(file.fd, static_cast<off_t>(pos)) != 0 ||
        ::fsync(file.fd) != 0) {
      return fail(ErrnoError(
          "WriteAheadLog::Open: cannot truncate torn tail of " + path));
    }
  }
  file.end = pos;
  file.discarded_bytes = torn_bytes + uncommitted_bytes;
  return file;
}

}  // namespace

Result<WriteAheadLog::Opened> WriteAheadLog::Open(
    const std::string& path, WalConfig config,
    const std::string& rotate_path) {
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(config));
  ScannedFile scanned[2];
  wal->num_files_ = rotate_path.empty() ? 1 : 2;
  for (size_t i = 0; i < wal->num_files_; ++i) {
    // The destructor closes the files opened so far if a later one fails.
    wal->files_[i].path = i == 0 ? path : rotate_path;
    AIMS_ASSIGN_OR_RETURN(scanned[i], OpenAndScan(wal->files_[i].path));
    wal->files_[i].fd = scanned[i].fd;
  }
  // Every group of the file appended to since the last rotation began
  // after every group of the other one. The file holding the newest groups
  // (file 0 when neither holds any) keeps taking appends; the other one's
  // groups replay first, and it stays retired until dropped.
  size_t active = 0;
  if (wal->num_files_ == 2 && !scanned[1].committed.empty() &&
      (scanned[0].committed.empty() ||
       scanned[1].committed.front().txn_id >
           scanned[0].committed.front().txn_id)) {
    active = 1;
  }
  Opened opened;
  uint64_t max_txn = 0;
  const size_t replay_order[2] = {1 - active, active};
  for (size_t n = 2 - wal->num_files_; n < 2; ++n) {
    ScannedFile& file = scanned[replay_order[n]];
    for (RecoveredTxn& txn : file.committed) {
      opened.committed.push_back(std::move(txn));
    }
    max_txn = std::max(max_txn, file.max_txn);
    wal->recovery_.recovered_records += file.committed_records;
    wal->recovery_.discarded_bytes += file.discarded_bytes;
  }
  wal->active_ = active;
  wal->file_size_ = scanned[active].end;
  if (wal->num_files_ == 2 && scanned[1 - active].end > kFileHeaderSize) {
    wal->retired_ = true;
    wal->retired_bytes_ = scanned[1 - active].end - kFileHeaderSize;
  }
  // A record whose txn id is the last id leaves the ids exhausted rather
  // than wrap below the ids already applied.
  wal->next_txn_ = NextTxnAfter(max_txn);
  wal->recovery_.recovered_txns = opened.committed.size();
  wal->PublishLag();
  opened.wal = std::move(wal);
  return opened;
}

WriteAheadLog::~WriteAheadLog() {
  for (const File& file : files_) {
    if (file.fd >= 0) ::close(file.fd);
  }
}

void WriteAheadLog::PublishLag() {
  lag_bytes_.store(file_size_ - kFileHeaderSize + retired_bytes_,
                   std::memory_order_relaxed);
}

Status WriteAheadLog::AppendRecord(uint8_t type, uint64_t txn_id,
                                   const uint8_t* payload,
                                   size_t payload_size) {
  // Same bound the recovery scan enforces: a record the scanner would
  // reject as garbage must never be appendable in the first place.
  if (payload_size > kMaxRecordPayload) {
    return Status::InvalidArgument(
        "WriteAheadLog: record payload exceeds " +
        std::to_string(kMaxRecordPayload) + " bytes");
  }
  std::vector<uint8_t> rec(kRecordHeaderSize + payload_size);
  rec[kTypeOffset] = type;
  std::memcpy(rec.data() + kTxnOffset, &txn_id, sizeof(txn_id));
  const uint32_t size32 = static_cast<uint32_t>(payload_size);
  std::memcpy(rec.data() + kSizeOffset, &size32, sizeof(size32));
  if (payload_size > 0) {
    std::memcpy(rec.data() + kRecordHeaderSize, payload, payload_size);
  }
  const uint32_t crc =
      Crc32(rec.data() + kTypeOffset, rec.size() - kTypeOffset);
  std::memcpy(rec.data() + kCrcOffset, &crc, sizeof(crc));

  std::lock_guard<std::mutex> lock(append_mutex_);
  return AppendLocked(rec);
}

Status WriteAheadLog::AppendLocked(const std::vector<uint8_t>& rec) {
  AIMS_RETURN_NOT_OK(
      PwriteFully(files_[active_].fd, rec.data(), rec.size(), file_size_));
  file_size_ += rec.size();
  records_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(rec.size(), std::memory_order_relaxed);
  PublishLag();
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::BeginTxn() {
  uint64_t txn_id;
  {
    std::lock_guard<std::mutex> lock(append_mutex_);
    if (next_txn_ == kNoTxnId) {
      return Status::ResourceExhausted("WriteAheadLog: txn ids exhausted");
    }
    txn_id = next_txn_++;
  }
  AIMS_RETURN_NOT_OK(AppendRecord(kBegin, txn_id, nullptr, 0));
  return txn_id;
}

Status WriteAheadLog::AppendBlockPut(uint64_t txn_id, BlockId id,
                                     const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> body(sizeof(uint32_t) + payload.size());
  const uint32_t id32 = id;
  std::memcpy(body.data(), &id32, sizeof(id32));
  if (!payload.empty()) {
    std::memcpy(body.data() + sizeof(id32), payload.data(), payload.size());
  }
  AIMS_RETURN_NOT_OK(AppendRecord(kBlockPut, txn_id, body.data(), body.size()));
  MaybeCrashAfterPayloadAppend();
  return Status::OK();
}

Status WriteAheadLog::AppendCatalog(uint64_t txn_id,
                                    const std::vector<uint8_t>& blob) {
  AIMS_RETURN_NOT_OK(AppendRecord(kCatalog, txn_id, blob.data(), blob.size()));
  MaybeCrashAfterPayloadAppend();
  return Status::OK();
}

Status WriteAheadLog::AppendSegment(uint64_t txn_id,
                                    const std::vector<uint8_t>& blob) {
  AIMS_RETURN_NOT_OK(AppendRecord(kSegment, txn_id, blob.data(), blob.size()));
  MaybeCrashAfterPayloadAppend();
  MaybeCrashAfterSegmentAppend();
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::AppendCommit(uint64_t txn_id) {
  if (g_crash_before_commit_append.load(std::memory_order_relaxed)) {
    CrashNow();
  }
  // The commit record and its ticket must be ordered identically for every
  // committer, so both happen inside one append critical section — a
  // ticket is durable exactly when a sync covers its record.
  std::vector<uint8_t> rec(kRecordHeaderSize);
  rec[kTypeOffset] = kCommit;
  std::memcpy(rec.data() + kTxnOffset, &txn_id, sizeof(txn_id));
  const uint32_t size32 = 0;
  std::memcpy(rec.data() + kSizeOffset, &size32, sizeof(size32));
  const uint32_t crc =
      Crc32(rec.data() + kTypeOffset, rec.size() - kTypeOffset);
  std::memcpy(rec.data() + kCrcOffset, &crc, sizeof(crc));

  std::lock_guard<std::mutex> lock(append_mutex_);
  AIMS_RETURN_NOT_OK(AppendLocked(rec));
  return appended_commits_.fetch_add(1, std::memory_order_release) + 1;
}

namespace {
/// The post-commit-pre-apply kill point: the commit is durable, nothing
/// has been acknowledged or written back yet.
void MaybeCrashAfterCommitDurable() {
  if (g_crash_after_commit_durable.load(std::memory_order_relaxed)) {
    CrashNow();
  }
}
}  // namespace

Status WriteAheadLog::WaitDurable(uint64_t ticket) {
  if (config_.sync_mode == WalSyncMode::kNone) {
    MaybeCrashAfterCommitDurable();
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(sync_mutex_);
  while (synced_commits_ < ticket) {
    if (!sync_error_.ok()) return sync_error_;
    if (sync_in_progress_) {
      sync_cv_.wait(lock);
      continue;
    }
    // Become the sync leader: wait out the group-commit window so
    // concurrent committers can append behind this ticket, then one fsync
    // covers every commit appended before it started.
    sync_in_progress_ = true;
    const uint64_t prev_synced = synced_commits_;
    // Rotate waits for this episode to end and syncs the old file itself,
    // so every commit this fsync covers is in the file active now.
    const File& file = files_[active_];
    lock.unlock();
    uint64_t covered = 0;
    Status status = Status::OK();
    {
      // The leader episode — window sleep + (simulated) sync + fsync — is
      // the section a wedged device turns into a hang; arm the watchdog
      // around exactly it. Scoped arming composes across concurrent
      // leaders on other shards sharing the handle.
      obs::Watchdog::Scope sync_scope(
          watchdog_.load(std::memory_order_acquire));
      if (config_.group_commit_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config_.group_commit_ms));
      }
      covered = appended_commits_.load(std::memory_order_acquire);
      if (config_.simulated_sync_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config_.simulated_sync_ms));
      }
      if (::fsync(file.fd) != 0) {
        status = ErrnoError("WriteAheadLog: fsync " + file.path);
      }
    }
    lock.lock();
    sync_in_progress_ = false;
    if (!status.ok()) {
      sync_error_ = status;
      sync_cv_.notify_all();
      return status;
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t batch = covered - prev_synced;
    uint64_t seen = max_commits_per_sync_.load(std::memory_order_relaxed);
    while (batch > seen && !max_commits_per_sync_.compare_exchange_weak(
                               seen, batch, std::memory_order_relaxed)) {
    }
    synced_commits_ = covered;
    sync_cv_.notify_all();
  }
  MaybeCrashAfterCommitDurable();
  return Status::OK();
}

Status WriteAheadLog::Commit(uint64_t txn_id) {
  AIMS_ASSIGN_OR_RETURN(uint64_t ticket, AppendCommit(txn_id));
  return WaitDurable(ticket);
}

Status WriteAheadLog::EmptyFile(size_t index, uint64_t high_water) {
  // Persist the txn-id high-water mark BEFORE dropping the records that
  // carry it. Recovery takes max(valid header marks, scanned ids) + 1, so
  // ids never restart after a checkpoint: a reused id could fall under the
  // catalog's applied mark, and recovery would skip its group. The whole
  // header is written, so a version-1 file becomes a version-2 one here.
  const File& file = files_[index];
  const bool sync = config_.sync_mode == WalSyncMode::kFsync;
  const auto header = FileHeader(high_water);
  AIMS_RETURN_NOT_OK(PwriteFully(file.fd, header.data(), header.size(), 0));
  if (sync && ::fsync(file.fd) != 0) {
    return ErrnoError("WriteAheadLog: fsync " + file.path);
  }
  if (::ftruncate(file.fd, static_cast<off_t>(kFileHeaderSize)) != 0) {
    return ErrnoError("WriteAheadLog: ftruncate " + file.path);
  }
  if (sync && ::fsync(file.fd) != 0) {
    return ErrnoError("WriteAheadLog: fsync " + file.path);
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate(uint64_t applied_txn) {
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  next_txn_ = std::max(next_txn_, NextTxnAfter(applied_txn));
  for (size_t i = 0; i < num_files_; ++i) {
    AIMS_RETURN_NOT_OK(EmptyFile(i, next_txn_ - 1));
  }
  file_size_ = kFileHeaderSize;
  retired_ = false;
  retired_bytes_ = 0;
  PublishLag();
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WriteAheadLog::Rotate() {
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  if (num_files_ != 2) {
    return Status::FailedPrecondition("WriteAheadLog::Rotate: one file only");
  }
  if (retired_) {
    return Status::FailedPrecondition(
        "WriteAheadLog::Rotate: the retired file is not dropped yet");
  }
  std::unique_lock<std::mutex> sync_lock(sync_mutex_);
  sync_cv_.wait(sync_lock, [&] { return !sync_in_progress_; });
  const uint64_t appended = appended_commits_.load(std::memory_order_acquire);
  if (config_.sync_mode == WalSyncMode::kFsync && synced_commits_ < appended) {
    if (::fsync(files_[active_].fd) != 0) {
      return ErrnoError("WriteAheadLog::Rotate: fsync " +
                        files_[active_].path);
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    synced_commits_ = appended;
    sync_cv_.notify_all();
  }
  retired_ = true;
  retired_bytes_ = file_size_ - kFileHeaderSize;
  active_ = 1 - active_;
  file_size_ = kFileHeaderSize;
  PublishLag();
  return Status::OK();
}

Status WriteAheadLog::DropRetired() {
  size_t index = 0;
  uint64_t high_water = 0;
  {
    std::lock_guard<std::mutex> lock(append_mutex_);
    if (!retired_) return Status::OK();
    index = 1 - active_;
    high_water = next_txn_ - 1;
  }
  // Off the append mutex: commits keep landing in the active file.
  AIMS_RETURN_NOT_OK(EmptyFile(index, high_water));
  std::lock_guard<std::mutex> lock(append_mutex_);
  retired_ = false;
  retired_bytes_ = 0;
  PublishLag();
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

uint64_t WriteAheadLog::lag_bytes() const {
  return lag_bytes_.load(std::memory_order_relaxed);
}

obs::WalStats WriteAheadLog::Stats() const {
  obs::WalStats stats = recovery_;
  stats.records = records_.load(std::memory_order_relaxed);
  stats.commits = appended_commits_.load(std::memory_order_relaxed);
  stats.syncs = syncs_.load(std::memory_order_relaxed);
  stats.max_commits_per_sync =
      max_commits_per_sync_.load(std::memory_order_relaxed);
  stats.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  stats.lag_bytes = lag_bytes_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return stats;
}

// ---- CatalogLog ------------------------------------------------------------

namespace {

constexpr uint32_t kCatalogLogMagic = 0x474F4C43u;  // "CLOG"
constexpr uint32_t kCatalogLogVersion = 1;
constexpr uint64_t kCatalogLogHeader = 8;

}  // namespace

Result<std::unique_ptr<CatalogLog>> CatalogLog::Open(
    const std::string& path,
    const std::function<Status(std::span<const uint8_t>)>& visit) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("CatalogLog::Open: cannot open " + path);
  std::unique_ptr<CatalogLog> log(new CatalogLog(path, fd));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    return ErrnoError("CatalogLog::Open: fstat " + path);
  }
  if (st.st_size == 0) {
    uint8_t header[kCatalogLogHeader];
    std::memcpy(header, &kCatalogLogMagic, sizeof(kCatalogLogMagic));
    std::memcpy(header + 4, &kCatalogLogVersion, sizeof(kCatalogLogVersion));
    AIMS_RETURN_NOT_OK(PwriteFully(fd, header, sizeof(header), 0));
    if (::fsync(fd) != 0) return ErrnoError("CatalogLog::Open: fsync " + path);
    log->size_ = kCatalogLogHeader;
    return log;
  }
  // One read sized by the file: no length the bytes claim sizes anything.
  AIMS_ASSIGN_OR_RETURN(std::vector<uint8_t> buf,
                        ReadWholeFile(fd, static_cast<uint64_t>(st.st_size)));
  if (buf.size() < kCatalogLogHeader ||
      LoadField<uint32_t>(buf.data(), 0) != kCatalogLogMagic ||
      LoadField<uint32_t>(buf.data(), 4) != kCatalogLogVersion) {
    return Status::IoError("CatalogLog::Open: not a catalog log: " + path);
  }
  uint64_t pos = kCatalogLogHeader;
  while (pos < buf.size()) {
    const uint64_t left = buf.size() - pos;
    if (left < kFrameBytes) break;  // torn: the frame itself cut short
    const uint32_t size = LoadField<uint32_t>(buf.data(), pos);
    const uint32_t crc = LoadField<uint32_t>(buf.data(), pos + 4);
    if (size > left - kFrameBytes) break;  // torn: the payload cut short
    const std::span<const uint8_t> payload(buf.data() + pos + kFrameBytes,
                                           size);
    if (Crc32(payload.data(), payload.size()) != crc) {
      // Only the last record can be torn: one with bytes after it was
      // synced before they were written, so its damage is corruption.
      if (size == left - kFrameBytes) break;
      return Status::IoError("CatalogLog::Open: damaged record at offset " +
                             std::to_string(pos) + " of " + path);
    }
    AIMS_RETURN_NOT_OK(visit(payload));
    pos += kFrameBytes + size;
  }
  log->size_ = pos;
  if (pos < buf.size() &&
      (::ftruncate(fd, static_cast<off_t>(pos)) != 0 || ::fsync(fd) != 0)) {
    return ErrnoError("CatalogLog::Open: cannot cut the torn record of " +
                      path);
  }
  return log;
}

CatalogLog::~CatalogLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status CatalogLog::Append(std::vector<uint8_t>* framed) {
  AIMS_CHECK(framed->size() >= kFrameBytes);
  const uint32_t size = static_cast<uint32_t>(framed->size() - kFrameBytes);
  const uint32_t crc = Crc32(framed->data() + kFrameBytes, size);
  std::memcpy(framed->data(), &size, sizeof(size));
  std::memcpy(framed->data() + 4, &crc, sizeof(crc));
  if (CrashArmedAt(testing::CheckpointStep::kDeltaAppend)) {
    (void)PwriteFully(fd_, framed->data(), framed->size() / 2, size_);
    CrashNow();
  }
  AIMS_RETURN_NOT_OK(PwriteFully(fd_, framed->data(), framed->size(), size_));
  if (::fdatasync(fd_) != 0) {
    return ErrnoError("CatalogLog::Append: fdatasync " + path_);
  }
  size_ += framed->size();
  return Status::OK();
}

Status CatalogLog::Reset() {
  if (::ftruncate(fd_, static_cast<off_t>(kCatalogLogHeader)) != 0 ||
      ::fsync(fd_) != 0) {
    return ErrnoError("CatalogLog::Reset: " + path_);
  }
  size_ = kCatalogLogHeader;
  return Status::OK();
}

}  // namespace aims::storage::durable
