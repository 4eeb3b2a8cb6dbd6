#include "core/aims.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>

#include "common/byte_codec.h"
#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/macros.h"
#include "obs/json_util.h"
#include "propolyne/incremental.h"
#include "signal/dwt.h"
#include "signal/lazy_wavelet.h"
#include "signal/polynomial.h"
#include "storage/allocation.h"

namespace aims::core {

namespace {

constexpr uint32_t kSnapshotMagic = 0x50414E53u;  // "SNAP"
/// v1: sessions only. v2 appends the sealed-segment section (raw-sample
/// lifecycle); v1 snapshots still load (their systems simply predate
/// segments).
constexpr uint32_t kSnapshotVersion = 2;
/// Guard against a corrupt length field allocating gigabytes at parse.
constexpr uint64_t kMaxCatalogField = 1u << 30;

// catalog.log records: the txn the record covers (u64), then items of
// kind u8, size u32 and that many bytes of a catalog entry
// (SerializeSession) or a segment op (EncodeSegmentOp), in commit order.
constexpr uint8_t kDeltaEntry = 1;
constexpr uint8_t kDeltaSegmentOp = 2;
constexpr size_t kDeltaItemHeader = 1 + sizeof(uint32_t);
/// Where the covered txn sits in a framed record.
constexpr size_t kDeltaTxnOffset = storage::durable::CatalogLog::kFrameBytes;
/// Budget of the write-back buffer pool the durable path creates when the
/// config disables the block cache.
constexpr size_t kBufferPoolBytes = 4u << 20;

using storage::durable::testing::CheckpointStep;
using storage::durable::testing::ReachCheckpointStep;

}  // namespace

AimsSystem::AimsSystem(AimsConfig config)
    : config_(config),
      filter_(signal::WaveletFilter::Make(config.filter)),
      measure_(/*rank=*/0) {
  if (config_.durability.path.empty()) {
    device_ = std::make_unique<storage::MemBlockDevice>(
        config_.block_size_bytes, config_.disk_cost);
    if (config_.block_cache.capacity_bytes > 0) {
      cache_ = std::make_unique<storage::BlockCache>(device_.get(),
                                                     config_.block_cache);
    }
    return;
  }
  init_status_ = OpenDurable();
  if (!init_status_.ok()) {
    // Keep the accessors (device(), block_cache()) valid even after a
    // failed open; every mutating call refuses with init_status_.
    wal_.reset();
    catalog_log_.reset();
    file_device_ = nullptr;
    sessions_.clear();
    if (device_ == nullptr) {
      device_ = std::make_unique<storage::MemBlockDevice>(
          config_.block_size_bytes, config_.disk_cost);
    }
  }
}

Status AimsSystem::OpenDurable() {
  const std::string& dir = config_.durability.path;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("OpenDurable: cannot create " + dir + ": " +
                           ec.message());
  }
  AIMS_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::durable::FileBlockDevice> device,
      storage::durable::FileBlockDevice::Open(
          dir + "/pages.aims", config_.block_size_bytes, config_.disk_cost));
  file_device_ = device.get();
  device_ = std::move(device);

  // The buffer pool is mandatory on the durable path: write-back staging
  // is what keeps uncommitted pages off the page file (no-steal). A
  // caller-configured cache is switched to write-back; otherwise one is
  // created with the default budget.
  storage::BlockCacheConfig cache_config = config_.block_cache;
  if (cache_config.capacity_bytes == 0) {
    cache_config.capacity_bytes = kBufferPoolBytes;
  }
  cache_config.write_back = true;
  cache_ = std::make_unique<storage::BlockCache>(device_.get(), cache_config);

  storage::durable::WalConfig wal_config;
  wal_config.sync_mode = config_.durability.sync_mode;
  wal_config.group_commit_ms = config_.durability.group_commit_ms;
  AIMS_ASSIGN_OR_RETURN(storage::durable::WriteAheadLog::Opened opened,
                        storage::durable::WriteAheadLog::Open(
                            dir + "/wal.aims", wal_config, dir + "/wal.1.aims"));
  wal_ = std::move(opened.wal);

  // Recovery: the base, then every delta record younger than it, then
  // every committed WAL group younger than the last delta, both WAL files'
  // in commit order. What the base or a delta already covers (a crash
  // before the log it came from was reset or dropped) is skipped by txn
  // id, so recovery is idempotent.
  AIMS_RETURN_NOT_OK(LoadSnapshot());
  AIMS_ASSIGN_OR_RETURN(
      catalog_log_,
      storage::durable::CatalogLog::Open(
          dir + "/catalog.log",
          [this](std::span<const uint8_t> record) {
            return ApplyDelta(record);
          }));
  // Every block a valid log names is in the page file already or was
  // allocated after it last grew durably, and each of those has a put in
  // the log. A put beyond that is corrupt: refuse it before replay grows
  // the page file toward it one block at a time.
  uint64_t block_limit = device_->num_blocks();
  for (const storage::durable::RecoveredTxn& txn : opened.committed) {
    block_limit += txn.block_puts.size();
  }
  for (const storage::durable::RecoveredTxn& txn : opened.committed) {
    for (const auto& put : txn.block_puts) {
      if (put.first >= block_limit) {
        return Status::IoError(
            "OpenDurable: WAL put names block " + std::to_string(put.first) +
            ", past the page file's " + std::to_string(device_->num_blocks()) +
            " blocks plus the log's puts");
      }
    }
  }
  for (const storage::durable::RecoveredTxn& txn : opened.committed) {
    if (txn.txn_id <= applied_txn_) continue;
    for (const auto& [id, payload] : txn.block_puts) {
      // The slot allocation itself is not logged; re-derive it. Committed
      // payloads always land on blocks that were allocated before the
      // commit, so extending to cover the id reconstructs the same state.
      while (device_->num_blocks() <= id) device_->Allocate();
      AIMS_RETURN_NOT_OK(device_->Write(id, payload));
    }
    for (const std::vector<uint8_t>& blob : txn.catalog_blobs) {
      AIMS_RETURN_NOT_OK(ApplyCatalogBlob(blob));
    }
    // Segment ops after catalog blobs: an ingest group's puts name the
    // session its own catalog record just created.
    for (const std::vector<uint8_t>& blob : txn.segment_blobs) {
      AIMS_ASSIGN_OR_RETURN(storage::tslife::SegmentOp op,
                            storage::tslife::DecodeSegmentOp(blob));
      AIMS_RETURN_NOT_OK(ApplySegmentOp(op));
    }
    applied_txn_ = txn.txn_id;
  }
  // Make the recovered state durable before dropping the records that
  // produced it: a compacted base, then empty logs.
  AIMS_RETURN_NOT_OK(file_device_->SyncPages());
  const std::vector<uint8_t> base = SerializeSnapshot();
  AIMS_RETURN_NOT_OK(Compact(base));
  AIMS_RETURN_NOT_OK(wal_->Truncate());
  base_bytes_ = base.size();
  log_bytes_ = catalog_log_->size_bytes();
  dead_bytes_ = 0;
  ResetDelta();
  return Status::OK();
}

Result<SessionId> AimsSystem::IngestRecording(
    const std::string& name, const streams::Recording& recording,
    obs::Trace* trace, std::vector<StandingRangeUpdate>* updates) {
  AIMS_ASSIGN_OR_RETURN(PreparedIngest prepared,
                        PrepareIngest(name, recording, trace));
  AIMS_ASSIGN_OR_RETURN(StagedIngest staged,
                        StageIngest(std::move(prepared), trace, updates));
  AIMS_RETURN_NOT_OK(WaitDurable(staged));
  AIMS_RETURN_NOT_OK(ApplyStaged(staged));
  // The ingest is durable: a failed checkpoint is logged and retried by a
  // later ingest, never reported as this one's failure.
  (void)FinishCheckpoint(trace);
  return staged.id;
}

Result<AimsSystem::PreparedIngest> AimsSystem::PrepareIngest(
    const std::string& name, const streams::Recording& recording,
    obs::Trace* trace) const {
  // A client can fill Recording::frames directly, so the shape is checked
  // here, before Recording::Channel (which aborts on a narrow frame).
  if (recording.num_frames() < 2) {
    return Status::InvalidArgument("IngestRecording: too few frames");
  }
  const size_t num_channels = recording.num_channels();
  if (num_channels == 0) {
    return Status::InvalidArgument("IngestRecording: frames carry no values");
  }
  for (const streams::Frame& frame : recording.frames) {
    if (frame.values.size() != num_channels) {
      return Status::InvalidArgument(
          "IngestRecording: frame widths differ from frame 0's");
    }
  }
  if (config_.block_size_bytes / sizeof(double) == 0) {
    return Status::InvalidArgument("IngestRecording: block size too small");
  }
  PreparedIngest prepared;
  prepared.info.name = name;
  prepared.info.num_channels = num_channels;
  prepared.info.num_frames = recording.num_frames();
  prepared.info.sample_rate_hz = recording.sample_rate_hz;

  size_t padded = 1;
  while (padded < recording.num_frames()) padded <<= 1;
  std::shared_ptr<const storage::BlockLayout> layout = LayoutFor(padded);

  // Raw-sample lifecycle: segment timestamps on the microsecond grid
  // (frame timestamps are seconds; ms would alias above 1 kHz).
  std::vector<int64_t> t_us;
  if (config_.tslife.enabled) {
    t_us.reserve(recording.num_frames());
    for (const streams::Frame& frame : recording.frames) {
      t_us.push_back(
          static_cast<int64_t>(std::llround(frame.timestamp * 1e6)));
    }
  }

  prepared.channels.reserve(num_channels);
  for (size_t c = 0; c < num_channels; ++c) {
    std::vector<double> channel = recording.Channel(c);

    // Seal the channel's *raw* samples (pre-centering, pre-padding) into
    // Gorilla segments beside the wavelet blocks — tier 0 of the storage
    // lifecycle, bit-exact against the ingested values.
    if (config_.tslife.enabled) {
      size_t seal_span = 0;
      if (trace != nullptr) seal_span = trace->BeginSpan(obs::Stage::kSeal);
      std::vector<storage::tslife::Segment> segments =
          storage::tslife::BuildSegments(c, t_us, channel,
                                         recording.sample_rate_hz,
                                         config_.tslife.segment_max_samples);
      for (storage::tslife::Segment& seg : segments) {
        prepared.segments.Put(std::move(seg));
      }
      if (trace != nullptr) trace->EndSpan(seal_span);
    }

    size_t transform_span = 0;
    if (trace != nullptr) {
      transform_span = trace->BeginSpan(obs::Stage::kTransform);
    }
    PreparedIngest::Channel& out = prepared.channels.emplace_back();
    out.layout = layout;
    // Mean-center so zero padding does not create an artificial step; the
    // mean goes to the catalog and is added back at query time.
    for (double v : channel) out.mean += v;
    out.mean /= static_cast<double>(channel.size());
    std::vector<double> padded_channel(padded, 0.0);
    for (size_t i = 0; i < channel.size(); ++i) {
      padded_channel[i] = channel[i] - out.mean;
    }
    // Storage: plain DWT coefficients (lazy-transform compatible), encoded
    // into the blocks of their error-tree tiling.
    AIMS_ASSIGN_OR_RETURN(out.coefficients,
                          signal::ForwardDwt(filter_, padded_channel));
    for (double v : out.coefficients) out.energy += v * v;
    out.payloads = layout->Encode(out.coefficients);
    if (trace != nullptr) trace->EndSpan(transform_span);
  }
  return prepared;
}

Result<AimsSystem::PreparedIngest> AimsSystem::ExportStored(
    SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("ExportStored: unknown session id");
  }
  const StoredSession& session = sessions_[id];
  PreparedIngest exported;
  exported.info = session.info;
  exported.info.owner.reset();
  exported.segments = session.segments;
  exported.channels.reserve(session.channels.size());
  for (const StoredChannel& stored : session.channels) {
    PreparedIngest::Channel& out = exported.channels.emplace_back();
    out.mean = stored.mean;
    out.energy = stored.energy;
    AIMS_ASSIGN_OR_RETURN(out.coefficients, ReadCoefficients(stored));
    // Encoding copies bytes: these are the payloads the blocks hold.
    out.payloads = stored.store->layout()->Encode(out.coefficients);
  }
  return exported;
}

Result<AimsSystem::StagedIngest> AimsSystem::StageIngest(
    PreparedIngest prepared, obs::Trace* trace,
    std::vector<StandingRangeUpdate>* updates,
    std::optional<SessionOwner> owner) {
  AIMS_RETURN_NOT_OK(init_status_);
  StoredSession session;
  session.info = std::move(prepared.info);
  session.info.id = static_cast<SessionId>(sessions_.size());
  session.info.owner = owner;
  session.segments = std::move(prepared.segments);

  // Continuous aggregates: evaluate the standing queries against the
  // prepared coefficients — same math (and the same floating-point
  // accumulation order) as QueryRange against block storage, but zero
  // block I/O.
  if (updates != nullptr) {
    for (size_t c = 0; c < prepared.channels.size(); ++c) {
      const PreparedIngest::Channel& channel = prepared.channels[c];
      for (const StandingRangeQuery& q : standing_queries_) {
        if (q.channel != c || q.first_frame > q.last_frame ||
            q.last_frame >= session.info.num_frames) {
          continue;
        }
        AIMS_ASSIGN_OR_RETURN(
            double centered,
            propolyne::IncrementalRangeSum(
                filter_, channel.coefficients.size(), q.first_frame,
                q.last_frame, channel.coefficients));
        StandingRangeUpdate update;
        update.handle = q.handle;
        update.session = session.info.id;
        update.count = q.last_frame - q.first_frame + 1;
        update.sum =
            centered + channel.mean * static_cast<double>(update.count);
        update.mean = update.sum / static_cast<double>(update.count);
        updates->push_back(update);
      }
    }
  }

  // Without a WAL the Puts write the blocks through to the device. The
  // durable buffer pool is in write-back mode instead: every Put parks
  // its blocks dirty, so no page-file I/O happens before the commit record
  // is durable.
  StagedIngest staged;
  staged.id = session.info.id;
  for (const PreparedIngest::Channel& channel : prepared.channels) {
    size_t write_span = 0;
    if (trace != nullptr) {
      write_span = trace->BeginSpan(obs::Stage::kBlockWrite);
    }
    // An export carries no layout: the copy takes this system's own, which
    // every other store of its padded length shares.
    std::shared_ptr<const storage::BlockLayout> layout =
        channel.layout != nullptr ? channel.layout
                                  : LayoutFor(channel.coefficients.size());
    StoredChannel stored;
    stored.mean = channel.mean;
    stored.padded_len = layout->n();
    stored.energy = channel.energy;
    stored.store = std::make_unique<storage::WaveletStore>(
        device_.get(), std::move(layout), cache_.get());
    Status put = stored.store->PutPayloads(channel.payloads);
    if (trace != nullptr) trace->EndSpan(write_span);
    if (!put.ok()) {
      // Nothing was logged: the pages parked so far are dropped.
      if (wal_ != nullptr) cache_->DropDirty(staged.blocks);
      return put;
    }
    const std::vector<storage::BlockId>& ids = stored.store->device_blocks();
    staged.blocks.insert(staged.blocks.end(), ids.begin(), ids.end());
    session.channels.push_back(std::move(stored));
  }
  if (wal_ != nullptr) {
    size_t wal_span = 0;
    if (trace != nullptr) wal_span = trace->BeginSpan(obs::Stage::kWalAppend);
    Status logged = LogSession(session, prepared, &staged);
    if (trace != nullptr) trace->EndSpan(wal_span);
    AIMS_RETURN_NOT_OK(logged);
  }
  sessions_.push_back(std::move(session));
  return staged;
}

Status AimsSystem::LogSession(const StoredSession& session,
                              const PreparedIngest& prepared,
                              StagedIngest* staged) {
  // Failed logging rolls the pool back: the dirty entries are dropped and
  // nothing was logged as committed, so the ingest simply never happened.
  // Its blocks stay allocated with no put in the log naming them, so the
  // page file's new length is made durable: recovery's bound (file blocks
  // plus logged puts) must cover the blocks later groups are given.
  // The delta items logged so far are dropped with the group.
  const size_t delta_mark = delta_.size();
  auto fail = [&](Status status) {
    delta_.resize(delta_mark);
    cache_->DropDirty(staged->blocks);
    (void)file_device_->SyncPages();
    return status;
  };
  Result<uint64_t> txn = wal_->BeginTxn();
  if (!txn.ok()) return fail(txn.status());
  // One record per block, from the payloads the stores were just given:
  // nothing is read back from the pool.
  for (size_t c = 0; c < session.channels.size(); ++c) {
    const std::vector<storage::BlockId>& ids =
        session.channels[c].store->device_blocks();
    const std::vector<std::vector<uint8_t>>& payloads =
        prepared.channels[c].payloads;
    for (size_t b = 0; b < ids.size(); ++b) {
      Status status = wal_->AppendBlockPut(*txn, ids[b], payloads[b]);
      if (!status.ok()) return fail(status);
    }
  }
  const std::vector<uint8_t> entry = SerializeSession(session);
  Status status = wal_->AppendCatalog(*txn, entry);
  if (!status.ok()) return fail(status);
  AddDeltaItem(kDeltaEntry, entry);
  // The session's sealed raw segments ride the same record group: a crash
  // after the commit record recovers them together with the catalog entry
  // (no acked ingest loses its raw samples), a crash before it loses the
  // whole ingest atomically.
  for (const auto& [key, seg] : session.segments.segments()) {
    (void)key;
    const std::vector<uint8_t> op = storage::tslife::EncodeSegmentOp(
        storage::tslife::SegmentOp::Kind::kPut, session.info.id, seg);
    Status seg_status = wal_->AppendSegment(*txn, op);
    if (!seg_status.ok()) return fail(seg_status);
    AddDeltaItem(kDeltaSegmentOp, op);
  }
  Result<uint64_t> ticket = wal_->AppendCommit(*txn);
  if (!ticket.ok()) return fail(ticket.status());
  staged->ticket = *ticket;
  pending_commits_.fetch_add(1, std::memory_order_relaxed);
  if (*txn > applied_txn_) applied_txn_ = *txn;
  return Status::OK();
}

Status AimsSystem::WaitDurable(const StagedIngest& staged) {
  if (!staged.logged()) return Status::OK();
  return wal_->WaitDurable(staged.ticket);
}

Status AimsSystem::ApplyStaged(const StagedIngest& staged) {
  if (!staged.logged()) return Status::OK();
  // Commit-time write-back: the transaction flushes exactly its own
  // blocks. An error is reported but loses nothing — the group is in the
  // WAL, and recovery replays it on the next open.
  Status flush = cache_->FlushBlocks(staged.blocks);
  pending_commits_.fetch_sub(1, std::memory_order_relaxed);
  AIMS_RETURN_NOT_OK(flush);
  // A blocked checkpoint is skipped, not failed: the log keeps growing,
  // and the WAL-lag health input reports the stall.
  if (config_.durability.checkpoint_wal_bytes > 0 &&
      wal_->lag_bytes() > config_.durability.checkpoint_wal_bytes) {
    Status begun = BeginCheckpoint();
    if (!begun.ok() && begun.code() != StatusCode::kFailedPrecondition) {
      std::fprintf(stderr, "aims: checkpoint of %s not begun: %s\n",
                   config_.durability.path.c_str(), begun.ToString().c_str());
    }
  }
  return Status::OK();
}

Status AimsSystem::CheckpointBlocker() const {
  if (pending_commits_.load(std::memory_order_relaxed) != 0) {
    return Status::FailedPrecondition(
        "Checkpoint: an ingest is between its staged phases");
  }
  // Pages a failed write-back left dirty exist only in the pool and the
  // WAL; truncating the log would leave the snapshot naming pages the
  // page file never received.
  if (cache_->DirtyBlocks() != 0) {
    return Status::FailedPrecondition(
        "Checkpoint: the buffer pool holds pages a failed write-back left "
        "dirty; reopening replays them from the WAL");
  }
  return Status::OK();
}

Status AimsSystem::BeginCheckpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  // One checkpoint at a time: a running one finishes on its own thread,
  // and a failed one is retried as it stands.
  if (checkpoint_.has_value()) return Status::OK();
  AIMS_RETURN_NOT_OK(CheckpointBlocker());
  // Every committed group so far is in the file the rotation retires, and
  // delta_ holds exactly their catalog changes.
  AIMS_RETURN_NOT_OK(wal_->Rotate());
  ReachCheckpointStep(CheckpointStep::kWalRotated);
  CheckpointWork& work = checkpoint_.emplace();
  // Compact once the dead bytes outweigh the live ones, so recovery reads
  // at most about twice the live catalog. An append-only capture never
  // compacts after open.
  if (2 * dead_bytes_ > base_bytes_ + log_bytes_ + delta_.size()) {
    work.compact = true;
    work.bytes = SerializeSnapshot();
    dead_bytes_ = 0;
  } else {
    std::memcpy(delta_.data() + kDeltaTxnOffset, &applied_txn_,
                sizeof(applied_txn_));
    work.bytes = std::move(delta_);
  }
  ResetDelta();
  return Status::OK();
}

Status AimsSystem::FinishCheckpoint(obs::Trace* trace) {
  return RunCheckpoint(trace, /*wait=*/false);
}

Status AimsSystem::RunCheckpoint(obs::Trace* trace, bool wait) {
  std::unique_lock<std::mutex> lock(checkpoint_mutex_);
  if (wait) checkpoint_cv_.wait(lock, [&] { return !checkpoint_running_; });
  if (!checkpoint_.has_value() || checkpoint_running_) return Status::OK();
  checkpoint_running_ = true;
  CheckpointWork& work = *checkpoint_;
  lock.unlock();

  size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan(obs::Stage::kCheckpoint);
  // Order is the recovery contract: the retired groups' pages on stable
  // storage, then the catalog changes they carried, and only then may the
  // WAL forget them.
  Status status = Status::OK();
  if (!work.written) {
    status = file_device_->SyncPages();
    if (status.ok()) {
      ReachCheckpointStep(CheckpointStep::kPagesSynced);
      if (work.compact) {
        status = Compact(work.bytes);
      } else {
        status = catalog_log_->Append(&work.bytes);
        if (status.ok()) ReachCheckpointStep(CheckpointStep::kDeltaDurable);
      }
    }
    work.written = status.ok();
  }
  if (status.ok()) status = wal_->DropRetired();
  if (trace != nullptr) trace->EndSpan(span);

  lock.lock();
  if (status.ok()) {
    if (work.compact) base_bytes_ = work.bytes.size();
    log_bytes_ = catalog_log_->size_bytes();
    checkpoint_.reset();
  }
  checkpoint_running_ = false;
  checkpoint_cv_.notify_all();
  lock.unlock();
  if (!status.ok()) {
    std::fprintf(stderr,
                 "aims: checkpoint of %s failed, kept for a retry: %s\n",
                 config_.durability.path.c_str(), status.ToString().c_str());
  }
  return status;
}

Status AimsSystem::Checkpoint() {
  AIMS_RETURN_NOT_OK(init_status_);
  if (!durable()) {
    return Status::FailedPrecondition("Checkpoint: not a durable system");
  }
  // The caller's exclusive lock keeps new checkpoints from beginning, so
  // once the one in flight is done this one covers the whole WAL.
  AIMS_RETURN_NOT_OK(RunCheckpoint(nullptr, /*wait=*/true));
  AIMS_RETURN_NOT_OK(BeginCheckpoint());
  return RunCheckpoint(nullptr, /*wait=*/true);
}

Status AimsSystem::Compact(const std::vector<uint8_t>& base) {
  AIMS_RETURN_NOT_OK(WriteFileDurably(
      config_.durability.path + "/catalog.snap",
      {reinterpret_cast<const char*>(base.data()), base.size()}));
  // The new base covers every record in the log, which recovery would
  // skip by txn id; resetting it only saves the reading.
  ReachCheckpointStep(CheckpointStep::kBaseRenamed);
  return catalog_log_->Reset();
}

void AimsSystem::ResetDelta() {
  delta_.assign(kDeltaTxnOffset + sizeof(uint64_t), 0);
}

void AimsSystem::AddDeltaItem(uint8_t kind, const std::vector<uint8_t>& blob) {
  ByteWriter writer(&delta_);
  writer.U8(kind);
  writer.U32(static_cast<uint32_t>(blob.size()));
  writer.Bytes(blob.data(), blob.size());
}

Status AimsSystem::ApplyDelta(std::span<const uint8_t> record) {
  ByteReader reader(record);
  const uint64_t txn = reader.U64();
  if (!reader.ok()) return Status::IoError("ApplyDelta: record too short");
  if (txn <= applied_txn_) return Status::OK();
  while (reader.remaining() > 0) {
    const uint8_t kind = reader.U8();
    const uint32_t size = reader.U32();
    const std::span<const uint8_t> blob = reader.Bytes(size);
    if (!reader.ok()) return Status::IoError("ApplyDelta: item cut short");
    if (kind == kDeltaEntry) {
      AIMS_RETURN_NOT_OK(ApplyCatalogBlob(blob));
    } else if (kind == kDeltaSegmentOp) {
      AIMS_ASSIGN_OR_RETURN(
          storage::tslife::SegmentOp op,
          storage::tslife::DecodeSegmentOp(blob.data(), blob.size()));
      AIMS_RETURN_NOT_OK(ApplySegmentOp(op));
    } else {
      return Status::IoError("ApplyDelta: unknown item kind " +
                             std::to_string(kind));
    }
  }
  applied_txn_ = txn;
  return Status::OK();
}

obs::WalStats AimsSystem::WalStats() const {
  return wal_ != nullptr ? wal_->Stats() : obs::WalStats{};
}

std::vector<uint8_t> AimsSystem::SerializeSession(
    const StoredSession& session) const {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.U64(session.info.name.size());
  writer.Bytes(session.info.name.data(), session.info.name.size());
  writer.U64(session.info.num_frames);
  writer.F64(session.info.sample_rate_hz);
  writer.U64(session.channels.size());
  for (size_t c = 0; c < session.channels.size(); ++c) {
    const StoredChannel& channel = session.channels[c];
    // The basis field: readers ignore it (BestBasisReport computes the
    // report on demand), and it stays so the entry layout is unchanged.
    writer.U64(0);
    writer.F64(channel.mean);
    writer.U64(channel.padded_len);
    writer.F64(channel.energy);
    const std::vector<storage::BlockId>& ids = channel.store->device_blocks();
    writer.U64(ids.size());
    for (storage::BlockId id : ids) writer.U32(id);
  }
  // The owner trails the entry, so an entry without one (older stores,
  // migration copies) decodes as owner-less with no version bump.
  if (session.info.owner.has_value()) {
    writer.U64(session.info.owner->global_id);
    writer.U64(session.info.owner->client);
  }
  return out;
}

Status AimsSystem::ApplyCatalogBlob(std::span<const uint8_t> blob) {
  ByteReader reader(blob);
  StoredSession session;
  session.info.id = static_cast<SessionId>(sessions_.size());
  const uint64_t name_len = reader.U64();
  if (!reader.ok() || name_len > kMaxCatalogField ||
      reader.remaining() < name_len) {
    return Status::IoError("ApplyCatalogBlob: malformed catalog entry");
  }
  std::span<const uint8_t> name = reader.Bytes(name_len);
  session.info.name.assign(name.begin(), name.end());
  session.info.num_frames = reader.U64();
  session.info.sample_rate_hz = reader.F64();
  const uint64_t num_channels = reader.U64();
  if (!reader.ok() || num_channels == 0 || num_channels > kMaxCatalogField) {
    return Status::IoError("ApplyCatalogBlob: malformed catalog entry");
  }
  session.info.num_channels = num_channels;
  const size_t block_items = config_.block_size_bytes / sizeof(double);
  // WaveletStore::Put allocates every block once, so a valid entry never
  // names a block twice. Refusing repeats bounds the lengths an entry can
  // claim by the page file's real block count before any layout is built.
  std::set<storage::BlockId> entry_blocks;
  for (uint64_t c = 0; c < num_channels; ++c) {
    (void)reader.U64();  // Best-basis field: 0, or an old ingest-time count.
    StoredChannel channel;
    channel.mean = reader.F64();
    channel.padded_len = reader.U64();
    channel.energy = reader.F64();
    const uint64_t num_blocks = reader.U64();
    // No block holds more than block_items coefficients, so a padded
    // length the block list cannot cover is corrupt — refused before a
    // layout of that length is built. Ingest pads to the smallest power
    // of two holding the frames, so a frame count that disagrees is
    // corrupt too: reads size their output by it.
    if (!reader.ok() || num_blocks > kMaxCatalogField ||
        reader.remaining() < num_blocks * sizeof(uint32_t) ||
        channel.padded_len > kMaxCatalogField ||
        !signal::IsPowerOfTwo(channel.padded_len) ||
        num_blocks * block_items < channel.padded_len ||
        session.info.num_frames > channel.padded_len ||
        2 * session.info.num_frames <= channel.padded_len) {
      return Status::IoError("ApplyCatalogBlob: malformed channel entry");
    }
    std::vector<storage::BlockId> ids(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) ids[b] = reader.U32();
    for (storage::BlockId id : ids) {
      if (id >= device_->num_blocks()) {
        return Status::IoError(
            "ApplyCatalogBlob: catalog references unknown device block " +
            std::to_string(id));
      }
      if (!entry_blocks.insert(id).second) {
        return Status::IoError(
            "ApplyCatalogBlob: catalog entry repeats device block " +
            std::to_string(id));
      }
    }
    std::shared_ptr<const storage::BlockLayout> layout =
        LayoutFor(channel.padded_len);
    if (layout->num_blocks() != ids.size()) {
      return Status::IoError(
          "ApplyCatalogBlob: block list does not match the allocation");
    }
    channel.store = std::make_unique<storage::WaveletStore>(
        device_.get(), std::move(layout), cache_.get(), std::move(ids));
    session.channels.push_back(std::move(channel));
  }
  if (reader.remaining() != 0) {
    SessionOwner owner;
    owner.global_id = reader.U64();
    owner.client = reader.U64();
    if (!reader.ok() || reader.remaining() != 0) {
      return Status::IoError("ApplyCatalogBlob: malformed owner field");
    }
    session.info.owner = owner;
  }
  sessions_.push_back(std::move(session));
  return Status::OK();
}

std::vector<uint8_t> AimsSystem::SerializeSnapshot() const {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.U32(kSnapshotMagic);
  writer.U32(kSnapshotVersion);
  writer.U64(applied_txn_);
  writer.U64(sessions_.size());
  for (const StoredSession& session : sessions_) {
    std::vector<uint8_t> blob = SerializeSession(session);
    writer.U64(blob.size());
    writer.Bytes(blob.data(), blob.size());
  }
  // v2 segment section: every sealed segment as a kPut op, so recovery
  // rebuilds the stores by replaying them through ApplySegmentOp.
  uint64_t num_segments = 0;
  for (const StoredSession& session : sessions_) {
    num_segments += session.segments.size();
  }
  writer.U64(num_segments);
  for (const StoredSession& session : sessions_) {
    for (const auto& [key, seg] : session.segments.segments()) {
      (void)key;
      std::vector<uint8_t> blob = storage::tslife::EncodeSegmentOp(
          storage::tslife::SegmentOp::Kind::kPut, session.info.id, seg);
      writer.U64(blob.size());
      writer.Bytes(blob.data(), blob.size());
    }
  }
  writer.U32(Crc32(out.data(), out.size()));
  return out;
}

Status AimsSystem::LoadSnapshot() {
  const std::string path = config_.durability.path + "/catalog.snap";
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::OK();  // first open: nothing checkpointed yet
  // One read sized by the file: no length the bytes claim sizes anything.
  std::vector<uint8_t> buf(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!in) return Status::IoError("LoadSnapshot: cannot read " + path);
  constexpr size_t kHeader = 4 + 4 + 8 + 8;
  if (buf.size() < kHeader + sizeof(uint32_t)) {
    return Status::IoError("LoadSnapshot: truncated snapshot " + path);
  }
  const std::span<const uint8_t> body =
      std::span<const uint8_t>(buf).first(buf.size() - sizeof(uint32_t));
  const uint32_t stored_crc =
      ByteReader(std::span<const uint8_t>(buf).last(sizeof(uint32_t))).U32();
  if (Crc32(body.data(), body.size()) != stored_crc) {
    return Status::IoError("LoadSnapshot: snapshot checksum mismatch in " +
                           path);
  }
  ByteReader reader(body);
  const uint32_t magic = reader.U32();
  const uint32_t version = reader.U32();
  if (magic != kSnapshotMagic || version < 1 || version > kSnapshotVersion) {
    return Status::IoError("LoadSnapshot: not a snapshot file: " + path);
  }
  applied_txn_ = reader.U64();
  const uint64_t num_sessions = reader.U64();
  if (!reader.ok() || num_sessions > kMaxCatalogField) {
    return Status::IoError("LoadSnapshot: malformed snapshot " + path);
  }
  // Each section is a count, then that many length-prefixed blobs.
  auto next_blob = [&]() -> Result<std::span<const uint8_t>> {
    const uint64_t blob_len = reader.U64();
    if (!reader.ok() || blob_len > kMaxCatalogField ||
        reader.remaining() < blob_len) {
      return Status::IoError("LoadSnapshot: malformed snapshot " + path);
    }
    return reader.Bytes(blob_len);
  };
  for (uint64_t s = 0; s < num_sessions; ++s) {
    AIMS_ASSIGN_OR_RETURN(std::span<const uint8_t> blob, next_blob());
    AIMS_RETURN_NOT_OK(ApplyCatalogBlob(blob));
  }
  if (version >= 2) {
    const uint64_t num_segments = reader.U64();
    if (!reader.ok() || num_segments > kMaxCatalogField) {
      return Status::IoError("LoadSnapshot: malformed snapshot " + path);
    }
    for (uint64_t i = 0; i < num_segments; ++i) {
      AIMS_ASSIGN_OR_RETURN(std::span<const uint8_t> blob, next_blob());
      AIMS_ASSIGN_OR_RETURN(
          storage::tslife::SegmentOp op,
          storage::tslife::DecodeSegmentOp(blob.data(), blob.size()));
      AIMS_RETURN_NOT_OK(ApplySegmentOp(op));
    }
  }
  return Status::OK();
}

std::shared_ptr<const storage::BlockLayout> AimsSystem::LayoutFor(
    size_t padded_len) const {
  std::lock_guard<std::mutex> lock(layouts_mutex_);
  std::shared_ptr<const storage::BlockLayout>& layout = layouts_[padded_len];
  if (layout == nullptr) {
    layout = std::make_shared<const storage::BlockLayout>(
        std::make_unique<storage::SubtreeTilingAllocator>(
            padded_len, config_.block_size_bytes / sizeof(double)),
        padded_len);
  }
  return layout;
}

Result<const storage::WaveletStore*> AimsSystem::ChannelStore(
    SessionId id, size_t channel) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("ChannelStore: unknown session id");
  }
  if (channel >= sessions_[id].channels.size()) {
    return Status::OutOfRange("ChannelStore: channel out of range");
  }
  return sessions_[id].channels[channel].store.get();
}

Result<SessionInfo> AimsSystem::GetSession(SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("GetSession: unknown session id");
  }
  return sessions_[id].info;
}

std::vector<SessionInfo> AimsSystem::ListSessions() const {
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const StoredSession& s : sessions_) out.push_back(s.info);
  return out;
}

Result<std::vector<storage::tslife::SegmentMeta>> AimsSystem::ListSegments(
    SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("ListSegments: unknown session id");
  }
  std::vector<storage::tslife::SegmentMeta> out;
  out.reserve(sessions_[id].segments.size());
  for (const auto& [key, seg] : sessions_[id].segments.segments()) {
    (void)key;
    out.push_back(seg.meta);
  }
  return out;
}

Result<std::vector<gorilla::Sample>> AimsSystem::ReadRawSamples(
    SessionId id, size_t channel) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("ReadRawSamples: unknown session id");
  }
  const StoredSession& session = sessions_[id];
  if (channel >= session.info.num_channels) {
    return Status::OutOfRange("ReadRawSamples: channel out of range");
  }
  return session.segments.ReadChannel(channel);
}

size_t AimsSystem::SegmentBytes() const {
  size_t total = 0;
  for (const StoredSession& s : sessions_) total += s.segments.total_bytes();
  return total;
}

Result<storage::tslife::SweepStats> AimsSystem::SweepRetention(
    const storage::tslife::RetentionPolicy& policy, int64_t now_us,
    const std::vector<SessionId>* sessions) {
  AIMS_RETURN_NOT_OK(init_status_);
  using Kind = storage::tslife::SegmentOp::Kind;
  using SegmentKey = std::pair<size_t, uint64_t>;
  storage::tslife::SweepStats stats;
  std::vector<storage::tslife::SegmentOp> ops;
  std::vector<SessionId> all;
  if (sessions == nullptr) {
    all.resize(sessions_.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    sessions = &all;
  }
  for (const SessionId sid : *sessions) {
    if (sid >= sessions_.size()) continue;
    const storage::tslife::SegmentStore& store = sessions_[sid].segments;
    stats.bytes_before += store.total_bytes();
    uint64_t projected = store.total_bytes();
    // Sweep decisions are staged here and committed as one WAL group at
    // the end; a segment is either dropped, replaced by a downsampled
    // payload, or untouched.
    std::set<SegmentKey> drops;
    std::map<SegmentKey, storage::tslife::Segment> replacements;

    // Age tiers: ages are measured against the segment's own data time,
    // so a sweep at a given now_us is deterministic.
    for (const auto& [key, seg] : store.segments()) {
      ++stats.segments_scanned;
      const double age_s = static_cast<double>(now_us - seg.meta.t1_us) / 1e6;
      if (policy.drop_age_seconds > 0.0 && age_s >= policy.drop_age_seconds) {
        drops.insert(key);
        projected -= seg.bytes.size();
        continue;
      }
      if (policy.downsample_age_seconds > 0.0 &&
          age_s >= policy.downsample_age_seconds && seg.meta.tier == 0) {
        Result<storage::tslife::Segment> down =
            storage::tslife::DownsampleSegment(seg, policy);
        if (down.ok() && down->bytes.size() < seg.bytes.size()) {
          projected -= seg.bytes.size() - down->bytes.size();
          if (down->meta.nmse > stats.max_nmse) {
            stats.max_nmse = down->meta.nmse;
          }
          replacements[key] = std::move(*down);
        } else {
          ++stats.segments_skipped;
        }
      }
    }

    // Byte budget: oldest data first, downsampling before dropping.
    if (policy.max_bytes > 0 && projected > policy.max_bytes) {
      std::vector<std::pair<SegmentKey, const storage::tslife::Segment*>>
          order;
      order.reserve(store.size());
      for (const auto& [key, seg] : store.segments()) {
        order.emplace_back(key, &seg);
      }
      std::sort(order.begin(), order.end(),
                [](const auto& a, const auto& b) {
                  if (a.second->meta.t1_us != b.second->meta.t1_us) {
                    return a.second->meta.t1_us < b.second->meta.t1_us;
                  }
                  return a.first < b.first;
                });
      for (const auto& [key, seg] : order) {
        if (projected <= policy.max_bytes) break;
        if (drops.count(key) || replacements.count(key) ||
            seg->meta.tier != 0) {
          continue;
        }
        Result<storage::tslife::Segment> down =
            storage::tslife::DownsampleSegment(*seg, policy);
        if (down.ok() && down->bytes.size() < seg->bytes.size()) {
          projected -= seg->bytes.size() - down->bytes.size();
          if (down->meta.nmse > stats.max_nmse) {
            stats.max_nmse = down->meta.nmse;
          }
          replacements[key] = std::move(*down);
        } else {
          ++stats.segments_skipped;
        }
      }
      for (const auto& [key, seg] : order) {
        if (projected <= policy.max_bytes) break;
        if (drops.count(key)) continue;
        auto rit = replacements.find(key);
        const uint64_t current = rit != replacements.end()
                                     ? rit->second.bytes.size()
                                     : seg->bytes.size();
        if (rit != replacements.end()) replacements.erase(rit);
        drops.insert(key);
        projected -= current;
      }
    }

    for (const SegmentKey& key : drops) {
      storage::tslife::SegmentOp op;
      op.kind = Kind::kDrop;
      op.session = sid;
      op.segment.meta.channel = key.first;
      op.segment.meta.seq = key.second;
      ops.push_back(std::move(op));
      ++stats.segments_dropped;
    }
    for (auto& [key, seg] : replacements) {
      (void)key;
      storage::tslife::SegmentOp op;
      op.kind = Kind::kPut;
      op.session = sid;
      op.segment = std::move(seg);
      ops.push_back(std::move(op));
      ++stats.segments_downsampled;
    }
    stats.bytes_after += projected;
  }
  AIMS_RETURN_NOT_OK(CommitSegmentOps(ops));
  return stats;
}

void AimsSystem::SetStandingQueries(std::vector<StandingRangeQuery> queries) {
  standing_queries_ = std::move(queries);
}

Status AimsSystem::ApplySegmentOp(const storage::tslife::SegmentOp& op) {
  using Kind = storage::tslife::SegmentOp::Kind;
  if (op.session >= sessions_.size()) {
    return Status::IoError("ApplySegmentOp: op references unknown session " +
                           std::to_string(op.session));
  }
  storage::tslife::SegmentStore& store = sessions_[op.session].segments;
  // The put an op replaces or drops, and a drop itself, stay in the
  // catalog files as dead bytes until a compaction.
  auto old =
      store.segments().find({op.segment.meta.channel, op.segment.meta.seq});
  if (old != store.segments().end()) {
    dead_bytes_ += kDeltaItemHeader +
                   storage::tslife::EncodedSegmentOpSize(Kind::kPut,
                                                         old->second);
  }
  if (op.kind == Kind::kPut) {
    store.Put(op.segment);
  } else {
    dead_bytes_ += kDeltaItemHeader +
                   storage::tslife::EncodedSegmentOpSize(Kind::kDrop,
                                                         op.segment);
    store.Drop(op.segment.meta.channel, op.segment.meta.seq);
  }
  return Status::OK();
}

Status AimsSystem::CommitSegmentOps(
    const std::vector<storage::tslife::SegmentOp>& ops) {
  if (ops.empty()) return Status::OK();
  if (durable()) {
    // One WAL record group for the whole batch: recovery sees all of a
    // sweep or none of it.
    // The ops join the next delta record only once they are durable.
    const size_t delta_mark = delta_.size();
    Status logged = [&]() -> Status {
      AIMS_ASSIGN_OR_RETURN(uint64_t txn_id, wal_->BeginTxn());
      for (const storage::tslife::SegmentOp& op : ops) {
        const std::vector<uint8_t> blob = storage::tslife::EncodeSegmentOp(op);
        AIMS_RETURN_NOT_OK(wal_->AppendSegment(txn_id, blob));
        AddDeltaItem(kDeltaSegmentOp, blob);
      }
      AIMS_ASSIGN_OR_RETURN(uint64_t ticket, wal_->AppendCommit(txn_id));
      AIMS_RETURN_NOT_OK(wal_->WaitDurable(ticket));
      if (txn_id > applied_txn_) applied_txn_ = txn_id;
      return Status::OK();
    }();
    if (!logged.ok()) {
      delta_.resize(delta_mark);
      return logged;
    }
  }
  for (const storage::tslife::SegmentOp& op : ops) {
    AIMS_RETURN_NOT_OK(ApplySegmentOp(op));
  }
  return Status::OK();
}

Result<std::vector<double>> AimsSystem::ReadChannel(SessionId id,
                                                    size_t channel) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("ReadChannel: unknown session id");
  }
  const StoredSession& session = sessions_[id];
  if (channel >= session.channels.size()) {
    return Status::OutOfRange("ReadChannel: channel out of range");
  }
  const StoredChannel& stored = session.channels[channel];
  AIMS_ASSIGN_OR_RETURN(std::vector<double> padded_channel,
                        ReadCentered(stored));
  std::vector<double> out(session.info.num_frames);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = padded_channel[i] + stored.mean;
  }
  return out;
}

Result<std::vector<double>> AimsSystem::ReadCoefficients(
    const StoredChannel& stored) const {
  std::vector<double> coeffs(stored.padded_len, 0.0);
  const storage::BlockLayout& layout = *stored.store->layout();
  for (size_t b = 0; b < layout.num_blocks(); ++b) {
    AIMS_ASSIGN_OR_RETURN(std::vector<double> values,
                          stored.store->FetchBlock(b));
    const std::span<const size_t> slots = layout.contents(b);
    for (size_t k = 0; k < slots.size(); ++k) coeffs[slots[k]] = values[k];
  }
  return coeffs;
}

Result<std::vector<double>> AimsSystem::ReadCentered(
    const StoredChannel& stored) const {
  AIMS_ASSIGN_OR_RETURN(std::vector<double> coeffs, ReadCoefficients(stored));
  return signal::InverseDwt(filter_, coeffs);
}

Result<std::vector<size_t>> AimsSystem::BestBasisReport(SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("BestBasisReport: unknown session id");
  }
  std::vector<size_t> nodes;
  for (const StoredChannel& stored : sessions_[id].channels) {
    AIMS_ASSIGN_OR_RETURN(std::vector<double> centered, ReadCentered(stored));
    AIMS_ASSIGN_OR_RETURN(
        signal::WaveletPacketTree tree,
        signal::WaveletPacketTree::Build(filter_, centered, /*max_depth=*/6));
    nodes.push_back(tree.BestBasis(config_.basis_cost).size());
  }
  return nodes;
}

namespace {

/// One query coefficient of a schedule, with the block holding its stored
/// partner.
struct ScheduledCoefficient {
  size_t block = 0;
  size_t index = 0;
  double value = 0.0;
};

/// One block of a query's refinement schedule — the unit both the planner
/// and the evaluator work in. Its query coefficients are
/// BlockSchedule::coefficients[begin, end), ascending by index.
struct ScheduledBlock {
  size_t block = 0;
  size_t begin = 0;
  size_t end = 0;
  double query_energy = 0.0;
};

struct BlockSchedule {
  /// Every query coefficient, grouped by block, ascending by index within
  /// each block.
  std::vector<ScheduledCoefficient> coefficients;
  /// The blocks in refinement order.
  std::vector<ScheduledBlock> blocks;
};

/// \brief Groups the query coefficients by the block holding their stored
/// partner and orders the blocks by decreasing query energy (the
/// "importance function" of Sec. 3.2.1), ties broken by block index so
/// the schedule — and therefore EXPLAIN vs. ANALYZE reconciliation — is
/// fully deterministic. Shared by PlanRangeQuery (no I/O) and
/// QueryRangeProgressive (fetches in exactly this order).
BlockSchedule BuildBlockSchedule(const storage::WaveletStore& store,
                                 const signal::SparseCoefficients& query) {
  const storage::CoefficientAllocator& allocator = store.allocator();
  BlockSchedule schedule;
  schedule.coefficients.reserve(query.entries.size());
  for (const auto& [idx, q] : query.entries) {
    schedule.coefficients.push_back({allocator.BlockOf(idx), idx, q});
  }
  // The entries ascend by index, so sorting by (block, index) groups them
  // and keeps each block's energy summed in index order.
  std::sort(schedule.coefficients.begin(), schedule.coefficients.end(),
            [](const ScheduledCoefficient& a, const ScheduledCoefficient& b) {
              return a.block != b.block ? a.block < b.block
                                        : a.index < b.index;
            });
  for (size_t k = 0; k < schedule.coefficients.size(); ++k) {
    const ScheduledCoefficient& c = schedule.coefficients[k];
    if (schedule.blocks.empty() || schedule.blocks.back().block != c.block) {
      schedule.blocks.push_back({c.block, k, k, 0.0});
    }
    ScheduledBlock& work = schedule.blocks.back();
    ++work.end;
    work.query_energy += c.value * c.value;
  }
  std::sort(schedule.blocks.begin(), schedule.blocks.end(),
            [](const ScheduledBlock& a, const ScheduledBlock& b) {
              if (a.query_energy != b.query_energy) {
                return a.query_energy > b.query_energy;
              }
              return a.block < b.block;
            });
  return schedule;
}

/// Wavelet level of one DWT coefficient index: 0 is the approximation
/// root, level k >= 1 spans indices [2^(k-1), 2^k) — the error-tree depth,
/// finer as k grows.
size_t WaveletLevelOf(size_t index) {
  size_t level = 0;
  while (index >> level) ++level;
  return level;
}

}  // namespace

std::string QueryPlan::ToJson() const {
  std::string out = "{\"session\":" + std::to_string(session) +
                    ",\"channel\":" + std::to_string(channel) +
                    ",\"first_frame\":" + std::to_string(first_frame) +
                    ",\"last_frame\":" + std::to_string(last_frame) +
                    ",\"padded_len\":" + std::to_string(padded_len) +
                    ",\"num_query_coefficients\":" +
                    std::to_string(num_query_coefficients) +
                    ",\"wavelet_levels\":[";
  for (size_t i = 0; i < wavelet_levels.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(wavelet_levels[i]);
  }
  out += "],\"predicted_blocks\":" + std::to_string(predicted_blocks) +
         ",\"predicted_cached_blocks\":" +
         std::to_string(predicted_cached_blocks) +
         ",\"predicted_cold_blocks\":" + std::to_string(predicted_cold_blocks) +
         ",\"block_size_bytes\":" + std::to_string(block_size_bytes) +
         ",\"predicted_io_ms\":" + obs::TrimmedDouble(predicted_io_ms) +
         ",\"aggregate_hit\":" + (aggregate_hit ? "true" : "false") +
         ",\"schedule\":[";
  for (size_t i = 0; i < schedule.size(); ++i) {
    const QueryPlanBlockFetch& fetch = schedule[i];
    if (i > 0) out += ',';
    out += "{\"block\":" + std::to_string(fetch.logical_block) +
           ",\"coefficients\":" + std::to_string(fetch.num_coefficients) +
           ",\"query_energy\":" + obs::TrimmedDouble(fetch.query_energy) +
           ",\"cached\":" + (fetch.cached ? "true" : "false") + '}';
  }
  out += "]}";
  return out;
}

Result<AimsSystem::RangeQueryInput> AimsSystem::StartRangeQuery(
    const char* op, SessionId id, size_t channel, size_t first_frame,
    size_t last_frame) const {
  if (id >= sessions_.size()) {
    return Status::NotFound(std::string(op) + ": unknown session id");
  }
  const StoredSession& session = sessions_[id];
  if (channel >= session.channels.size()) {
    return Status::OutOfRange(std::string(op) + ": channel out of range");
  }
  if (first_frame > last_frame || last_frame >= session.info.num_frames) {
    return Status::OutOfRange(std::string(op) + ": bad frame range");
  }
  RangeQueryInput input;
  input.stored = &session.channels[channel];
  // sum_{i in [a,b]} x[i] = <1_[a,b], x> = <Q, X> by Parseval; the lazy
  // transform selects the O(lg n) nonzero Q entries, and a query reads
  // only the blocks holding them.
  AIMS_ASSIGN_OR_RETURN(
      input.query,
      signal::LazyWaveletTransform(filter_, input.stored->padded_len,
                                   first_frame, last_frame,
                                   signal::Polynomial::Constant(1.0)));
  return input;
}

Result<QueryPlan> AimsSystem::PlanRangeQuery(SessionId id, size_t channel,
                                             size_t first_frame,
                                             size_t last_frame) const {
  AIMS_ASSIGN_OR_RETURN(RangeQueryInput input,
                        StartRangeQuery("PlanRangeQuery", id, channel,
                                        first_frame, last_frame));
  const StoredChannel& stored = *input.stored;
  const signal::SparseCoefficients& query = input.query;
  const BlockSchedule schedule = BuildBlockSchedule(*stored.store, query);

  QueryPlan plan;
  plan.session = id;
  plan.channel = channel;
  plan.first_frame = first_frame;
  plan.last_frame = last_frame;
  plan.padded_len = stored.padded_len;
  plan.num_query_coefficients = query.entries.size();
  // The entries ascend by index, and the level with it.
  for (const auto& [idx, q] : query.entries) {
    (void)q;
    const size_t level = WaveletLevelOf(idx);
    if (plan.wavelet_levels.empty() || plan.wavelet_levels.back() != level) {
      plan.wavelet_levels.push_back(level);
    }
  }
  plan.predicted_blocks = schedule.blocks.size();
  plan.block_size_bytes = config_.block_size_bytes;
  plan.schedule.reserve(schedule.blocks.size());
  for (const ScheduledBlock& work : schedule.blocks) {
    // Residency probe only — Contains never perturbs the cache's LRU
    // order, so EXPLAIN stays free of side effects.
    const bool cached = stored.store->IsBlockCached(work.block);
    if (cached) ++plan.predicted_cached_blocks;
    plan.schedule.push_back(QueryPlanBlockFetch{
        work.block, work.end - work.begin, work.query_energy, cached});
  }
  plan.predicted_cold_blocks =
      plan.predicted_blocks - plan.predicted_cached_blocks;
  plan.predicted_io_ms =
      static_cast<double>(plan.predicted_cold_blocks) *
      config_.disk_cost.AccessCostMs(config_.block_size_bytes);
  return plan;
}

Result<RangeStatistics> AimsSystem::QueryRange(SessionId id, size_t channel,
                                               size_t first_frame,
                                               size_t last_frame) const {
  AIMS_ASSIGN_OR_RETURN(
      RangeQueryInput input,
      StartRangeQuery("QueryRange", id, channel, first_frame, last_frame));
  const StoredChannel& stored = *input.stored;
  const signal::SparseCoefficients& query = input.query;
  std::vector<size_t> needed;
  needed.reserve(query.entries.size());
  for (const auto& [idx, value] : query.entries) {
    (void)value;
    needed.push_back(idx);
  }
  size_t reads_before = device_->reads();
  AIMS_ASSIGN_OR_RETURN(auto fetched, stored.store->Fetch(needed));
  RangeStatistics stats;
  stats.blocks_read = device_->reads() - reads_before;
  stats.count = last_frame - first_frame + 1;
  double centered_sum = 0.0;
  for (const auto& [idx, qv] : query.entries) {
    auto it = fetched.find(idx);
    if (it != fetched.end()) centered_sum += qv * it->second;
  }
  stats.sum = centered_sum + stored.mean * static_cast<double>(stats.count);
  stats.mean = stats.sum / static_cast<double>(stats.count);
  return stats;
}

Result<ProgressiveRangeResult> AimsSystem::QueryRangeProgressive(
    SessionId id, size_t channel, size_t first_frame, size_t last_frame,
    const ProgressiveObserver& observer) const {
  AIMS_ASSIGN_OR_RETURN(RangeQueryInput input,
                        StartRangeQuery("QueryRangeProgressive", id, channel,
                                        first_frame, last_frame));
  const StoredChannel& stored = *input.stored;
  const BlockSchedule schedule = BuildBlockSchedule(*stored.store, input.query);
  const storage::BlockLayout& layout = *stored.store->layout();
  double remaining_query_energy = 0.0;
  for (const ScheduledBlock& work : schedule.blocks) {
    remaining_query_energy += work.query_energy;
  }

  const double count = static_cast<double>(last_frame - first_frame + 1);
  double remaining_data_energy = stored.energy;
  double centered_sum = 0.0;
  ProgressiveRangeResult result;
  result.total_blocks_needed = schedule.blocks.size();
  size_t blocks_read = 0;
  size_t cache_hits = 0;
  for (const ScheduledBlock& work : schedule.blocks) {
    bool hit = false;
    AIMS_ASSIGN_OR_RETURN(std::vector<double> values,
                          stored.store->FetchBlock(work.block, &hit));
    ++blocks_read;
    if (hit) ++cache_hits;
    // Merge-join in slot order: the slots and the block's query
    // coefficients both ascend by index, and every query coefficient has
    // a slot. The bound subtracts every stored value's square.
    const std::span<const size_t> slots = layout.contents(work.block);
    size_t next = work.begin;
    for (size_t k = 0; k < slots.size(); ++k) {
      const double value = values[k];
      remaining_data_energy -= value * value;
      if (next < work.end && schedule.coefficients[next].index == slots[k]) {
        centered_sum += schedule.coefficients[next].value * value;
        ++next;
      }
    }
    AIMS_CHECK(next == work.end);
    remaining_query_energy -= work.query_energy;
    ProgressiveRangeStep step;
    step.blocks_read = blocks_read;
    step.cache_hits = cache_hits;
    step.sum_estimate = centered_sum + stored.mean * count;
    step.mean_estimate = step.sum_estimate / count;
    step.sum_error_bound =
        std::sqrt(std::max(remaining_query_energy, 0.0)) *
        std::sqrt(std::max(remaining_data_energy, 0.0));
    result.steps.push_back(step);
    if (observer && observer(step) == StepControl::kStop &&
        blocks_read < schedule.blocks.size()) {
      result.complete = false;
      break;
    }
  }
  if (result.steps.empty()) {
    // A degenerate query touching no blocks is already exact: the whole
    // answer is carried by the channel mean.
    ProgressiveRangeStep step;
    step.sum_estimate = stored.mean * count;
    step.mean_estimate = stored.mean;
    result.steps.push_back(step);
  } else if (result.complete) {
    result.steps.back().sum_error_bound = 0.0;
  }
  return result;
}

Result<propolyne::DataCube> AimsSystem::BuildChannelCube(
    const std::vector<SessionId>& ids, const CubeSpec& spec) const {
  if (ids.empty()) {
    return Status::InvalidArgument("BuildChannelCube: no sessions given");
  }
  if (!signal::IsPowerOfTwo(spec.time_buckets) ||
      !signal::IsPowerOfTwo(spec.value_buckets)) {
    return Status::InvalidArgument(
        "BuildChannelCube: bucket counts must be powers of two");
  }
  // Read every channel once (through the wavelet block store).
  std::vector<std::vector<double>> series(ids.size());
  double lo = spec.value_lo, hi = spec.value_hi;
  const bool auto_range = spec.value_lo == spec.value_hi;
  bool range_initialized = false;
  for (size_t s = 0; s < ids.size(); ++s) {
    AIMS_ASSIGN_OR_RETURN(series[s], ReadChannel(ids[s], spec.channel));
    if (auto_range) {
      for (double v : series[s]) {
        if (!range_initialized) {
          lo = hi = v;
          range_initialized = true;
        } else {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
    }
  }
  if (hi <= lo) hi = lo + 1.0;

  size_t session_extent = 1;
  while (session_extent < ids.size()) session_extent <<= 1;
  propolyne::CubeSchema schema{{"session", "time", "value"},
                               {session_extent, spec.time_buckets,
                                spec.value_buckets}};
  // Cheapest sufficient bases per dimension: session and time are only ever
  // COUNT-restricted, value carries polynomial measures (Sec. 3.3.1).
  std::vector<signal::WaveletFilter> filters = {
      signal::WaveletFilter::Make(signal::WaveletKind::kHaar),
      signal::WaveletFilter::Make(signal::WaveletKind::kDb2),
      signal::WaveletFilter::Make(signal::WaveletKind::kDb3)};
  AIMS_ASSIGN_OR_RETURN(propolyne::DataCube cube,
                        propolyne::DataCube::MakeMultiFilter(schema, filters));
  std::vector<double> dense(schema.total_size(), 0.0);
  for (size_t s = 0; s < series.size(); ++s) {
    const std::vector<double>& values = series[s];
    for (size_t f = 0; f < values.size(); ++f) {
      size_t time_bucket =
          std::min(spec.time_buckets - 1,
                   f * spec.time_buckets / std::max<size_t>(values.size(), 1));
      double normalized = (values[f] - lo) / (hi - lo);
      normalized = std::clamp(normalized, 0.0, 1.0);
      size_t value_bucket =
          std::min(spec.value_buckets - 1,
                   static_cast<size_t>(normalized *
                                       static_cast<double>(spec.value_buckets)));
      dense[(s * spec.time_buckets + time_bucket) * spec.value_buckets +
            value_bucket] += 1.0;
    }
  }
  return propolyne::DataCube::FromDenseMultiFilter(schema, filters,
                                                   std::move(dense));
}

Status AimsSystem::AddVocabularyEntry(std::string label,
                                      linalg::Matrix segment) {
  if (recognizer_ != nullptr) {
    return Status::FailedPrecondition(
        "AddVocabularyEntry: vocabulary is immutable while the recognizer "
        "is running; StopRecognizer first");
  }
  AIMS_RETURN_NOT_OK(vocabulary_.ValidateEntry(segment));
  vocabulary_.Add(std::move(label), std::move(segment));
  return Status::OK();
}

Status AimsSystem::StartRecognizer(
    recognition::StreamRecognizerConfig config) {
  if (vocabulary_.size() == 0) {
    return Status::FailedPrecondition(
        "StartRecognizer: register a vocabulary first");
  }
  recognizer_ = std::make_unique<recognition::StreamRecognizer>(
      &vocabulary_, &measure_, config);
  return Status::OK();
}

void AimsSystem::StopRecognizer() { recognizer_.reset(); }

Result<std::optional<recognition::RecognitionEvent>> AimsSystem::PushLiveFrame(
    const streams::Frame& frame) {
  if (!recognizer_) {
    return Status::FailedPrecondition("PushLiveFrame: recognizer not started");
  }
  return recognizer_->Push(frame);
}

Result<std::optional<recognition::RecognitionEvent>>
AimsSystem::FinishLiveStream() {
  if (!recognizer_) {
    return Status::FailedPrecondition(
        "FinishLiveStream: recognizer not started");
  }
  return recognizer_->Finish();
}

}  // namespace aims::core
