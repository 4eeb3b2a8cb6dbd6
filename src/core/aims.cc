#include "core/aims.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>

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
#include "streams/recording_io.h"

namespace aims::core {

namespace {

constexpr uint32_t kSnapshotMagic = 0x50414E53u;  // "SNAP"
/// v1: sessions only. v2 appends the sealed-segment section (raw-sample
/// lifecycle); v1 snapshots still load (their systems simply predate
/// segments).
constexpr uint32_t kSnapshotVersion = 2;
/// Guard against a corrupt length field allocating gigabytes at parse.
constexpr uint64_t kMaxCatalogField = 1u << 30;

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
  // created with the durability budget.
  storage::BlockCacheConfig cache_config = config_.block_cache;
  if (cache_config.capacity_bytes == 0) {
    cache_config.capacity_bytes = config_.durability.buffer_pool_bytes;
  }
  cache_config.write_back = true;
  cache_ = std::make_unique<storage::BlockCache>(device_.get(), cache_config);

  storage::durable::WalConfig wal_config;
  wal_config.sync_mode = config_.durability.sync_mode;
  wal_config.group_commit_ms = config_.durability.group_commit_ms;
  wal_config.simulated_sync_ms = config_.durability.simulated_sync_ms;
  AIMS_ASSIGN_OR_RETURN(
      storage::durable::WriteAheadLog::Opened opened,
      storage::durable::WriteAheadLog::Open(dir + "/wal.aims", wal_config));
  wal_ = std::move(opened.wal);

  // Recovery: checkpoint state first, then redo every committed WAL group
  // the snapshot predates. Groups the snapshot already covers (a crash
  // between snapshot write and log truncation) are skipped by txn id, so
  // replay is idempotent.
  AIMS_RETURN_NOT_OK(LoadSnapshot());
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
  // produced it, then start from a clean log.
  AIMS_RETURN_NOT_OK(file_device_->SyncPages());
  AIMS_RETURN_NOT_OK(WriteSnapshot());
  return wal_->Truncate();
}

Result<SessionId> AimsSystem::IngestRecording(
    const std::string& name, const streams::Recording& recording,
    obs::Trace* trace, std::vector<StandingRangeUpdate>* updates) {
  AIMS_ASSIGN_OR_RETURN(PreparedIngest prepared,
                        PrepareIngest(name, recording, trace));
  AIMS_ASSIGN_OR_RETURN(StagedIngest staged,
                        StageIngest(std::move(prepared), trace, updates));
  AIMS_RETURN_NOT_OK(WaitDurable(staged));
  AIMS_RETURN_NOT_OK(ApplyStaged(staged, trace));
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
      if (trace != nullptr) seal_span = trace->BeginSpan("seal");
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
    if (trace != nullptr) transform_span = trace->BeginSpan("transform");
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
            propolyne::IncrementalRangeSum(filter_, channel.layout->n(),
                                           q.first_frame, q.last_frame,
                                           channel.coefficients));
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
    if (trace != nullptr) write_span = trace->BeginSpan("block_write");
    StoredChannel stored;
    stored.mean = channel.mean;
    stored.padded_len = channel.layout->n();
    stored.energy = channel.energy;
    stored.store = std::make_unique<storage::WaveletStore>(
        device_.get(), channel.layout, cache_.get());
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
    if (trace != nullptr) wal_span = trace->BeginSpan("wal_append");
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
  auto fail = [&](Status status) {
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
  Status status = wal_->AppendCatalog(*txn, SerializeSession(session));
  if (!status.ok()) return fail(status);
  // The session's sealed raw segments ride the same record group: a crash
  // after the commit record recovers them together with the catalog entry
  // (no acked ingest loses its raw samples), a crash before it loses the
  // whole ingest atomically.
  for (const auto& [key, seg] : session.segments.segments()) {
    (void)key;
    Status seg_status = wal_->AppendSegment(
        *txn,
        storage::tslife::EncodeSegmentOp(storage::tslife::SegmentOp::Kind::kPut,
                                         session.info.id, seg));
    if (!seg_status.ok()) return fail(seg_status);
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

Status AimsSystem::ApplyStaged(const StagedIngest& staged,
                               obs::Trace* trace) {
  if (!staged.logged()) return Status::OK();
  // Commit-time write-back: the transaction flushes exactly its own
  // blocks. An error is reported but loses nothing — the group is in the
  // WAL, and recovery replays it on the next open.
  Status flush = cache_->FlushBlocks(staged.blocks);
  pending_commits_.fetch_sub(1, std::memory_order_relaxed);
  AIMS_RETURN_NOT_OK(flush);
  // A blocked auto-checkpoint is skipped, not failed: the log keeps
  // growing, and the WAL-lag health input reports the stall.
  if (config_.durability.checkpoint_wal_bytes > 0 &&
      wal_->lag_bytes() > config_.durability.checkpoint_wal_bytes &&
      CheckpointBlocker().ok()) {
    size_t checkpoint_span = 0;
    if (trace != nullptr) checkpoint_span = trace->BeginSpan("checkpoint");
    Status checkpoint = Checkpoint();
    if (trace != nullptr) trace->EndSpan(checkpoint_span);
    return checkpoint;
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

Status AimsSystem::Checkpoint() {
  AIMS_RETURN_NOT_OK(init_status_);
  if (!durable()) {
    return Status::FailedPrecondition("Checkpoint: not a durable system");
  }
  AIMS_RETURN_NOT_OK(CheckpointBlocker());
  // Order is the recovery contract: pages on stable storage, then the
  // catalog snapshot naming them, and only then may the log forget the
  // records that produced both.
  AIMS_RETURN_NOT_OK(file_device_->SyncPages());
  AIMS_RETURN_NOT_OK(WriteSnapshot());
  return wal_->Truncate();
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
  if (!reader.ok() || num_channels > kMaxCatalogField) {
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
    // layout of that length is built.
    if (!reader.ok() || num_blocks > kMaxCatalogField ||
        reader.remaining() < num_blocks * sizeof(uint32_t) ||
        channel.padded_len > kMaxCatalogField ||
        !signal::IsPowerOfTwo(channel.padded_len) ||
        num_blocks * block_items < channel.padded_len) {
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

Status AimsSystem::WriteSnapshot() const {
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
  return WriteFileDurably(
      config_.durability.path + "/catalog.snap",
      {reinterpret_cast<const char*>(out.data()), out.size()});
}

Status AimsSystem::LoadSnapshot() {
  const std::string path = config_.durability.path + "/catalog.snap";
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::OK();  // first open: nothing checkpointed yet
  std::vector<uint8_t> buf((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
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

Result<std::vector<storage::tslife::Segment>> AimsSystem::ExportSegments(
    SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("ExportSegments: unknown session id");
  }
  std::vector<storage::tslife::Segment> out;
  out.reserve(sessions_[id].segments.size());
  for (const auto& [key, seg] : sessions_[id].segments.segments()) {
    (void)key;
    out.push_back(seg);
  }
  return out;
}

Status AimsSystem::ReplaceSegments(
    SessionId id, std::vector<storage::tslife::Segment> segments) {
  AIMS_RETURN_NOT_OK(init_status_);
  if (id >= sessions_.size()) {
    return Status::NotFound("ReplaceSegments: unknown session id");
  }
  using Kind = storage::tslife::SegmentOp::Kind;
  std::vector<storage::tslife::SegmentOp> ops;
  ops.reserve(sessions_[id].segments.size() + segments.size());
  // Drops first, then puts: a re-put of a surviving (channel, seq) key
  // lands after its drop in replay order, so the new payload wins.
  for (const auto& [key, seg] : sessions_[id].segments.segments()) {
    (void)seg;
    storage::tslife::SegmentOp op;
    op.kind = Kind::kDrop;
    op.session = id;
    op.segment.meta.channel = key.first;
    op.segment.meta.seq = key.second;
    ops.push_back(std::move(op));
  }
  for (storage::tslife::Segment& seg : segments) {
    storage::tslife::SegmentOp op;
    op.kind = Kind::kPut;
    op.session = id;
    op.segment = std::move(seg);
    ops.push_back(std::move(op));
  }
  return CommitSegmentOps(ops);
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
  if (op.session >= sessions_.size()) {
    return Status::IoError("ApplySegmentOp: op references unknown session " +
                           std::to_string(op.session));
  }
  storage::tslife::SegmentStore& store = sessions_[op.session].segments;
  if (op.kind == storage::tslife::SegmentOp::Kind::kPut) {
    store.Put(op.segment);
  } else {
    store.Drop(op.segment.meta.channel, op.segment.meta.seq);
  }
  return Status::OK();
}

Status AimsSystem::CommitSegmentOps(
    const std::vector<storage::tslife::SegmentOp>& ops) {
  if (ops.empty()) return Status::OK();
  if (durable()) {
    // One WAL record group for the whole batch: recovery sees all of a
    // sweep / migration import or none of it.
    AIMS_ASSIGN_OR_RETURN(uint64_t txn_id, wal_->BeginTxn());
    for (const storage::tslife::SegmentOp& op : ops) {
      AIMS_RETURN_NOT_OK(
          wal_->AppendSegment(txn_id, storage::tslife::EncodeSegmentOp(op)));
    }
    AIMS_ASSIGN_OR_RETURN(uint64_t ticket, wal_->AppendCommit(txn_id));
    AIMS_RETURN_NOT_OK(wal_->WaitDurable(ticket));
    if (txn_id > applied_txn_) applied_txn_ = txn_id;
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

Result<std::vector<double>> AimsSystem::ReadCentered(
    const StoredChannel& stored) const {
  std::vector<size_t> all(stored.padded_len);
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  AIMS_ASSIGN_OR_RETURN(auto fetched, stored.store->Fetch(all));
  std::vector<double> coeffs(stored.padded_len, 0.0);
  for (const auto& [idx, value] : fetched) coeffs[idx] = value;
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

/// One block of a query's refinement schedule with the coefficients it
/// carries — the unit both the planner and the evaluator work in.
struct ScheduledBlock {
  size_t block = 0;
  std::vector<std::pair<size_t, double>> coefficients;
  double query_energy = 0.0;
};

/// \brief Groups the query coefficients by the block holding their stored
/// partner and orders the blocks by decreasing query energy (the
/// "importance function" of Sec. 3.2.1), ties broken by block index so
/// the schedule — and therefore EXPLAIN vs. ANALYZE reconciliation — is
/// fully deterministic. Shared by PlanRangeQuery (no I/O) and
/// QueryRangeProgressive (fetches in exactly this order).
std::vector<ScheduledBlock> BuildBlockSchedule(
    const storage::WaveletStore& store,
    const signal::SparseCoefficients& query) {
  std::map<size_t, ScheduledBlock> per_block;
  for (const auto& [idx, q] : query.entries) {
    std::vector<size_t> blocks = store.BlocksFor({idx});
    AIMS_CHECK(blocks.size() == 1);
    ScheduledBlock& work = per_block[blocks[0]];
    work.block = blocks[0];
    work.coefficients.emplace_back(idx, q);
    work.query_energy += q * q;
  }
  std::vector<ScheduledBlock> order;
  order.reserve(per_block.size());
  for (auto& [block, work] : per_block) order.push_back(std::move(work));
  std::sort(order.begin(), order.end(),
            [](const ScheduledBlock& a, const ScheduledBlock& b) {
              if (a.query_energy != b.query_energy) {
                return a.query_energy > b.query_energy;
              }
              return a.block < b.block;
            });
  return order;
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

Result<QueryPlan> AimsSystem::PlanRangeQuery(SessionId id, size_t channel,
                                             size_t first_frame,
                                             size_t last_frame) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("PlanRangeQuery: unknown session id");
  }
  const StoredSession& session = sessions_[id];
  if (channel >= session.channels.size()) {
    return Status::OutOfRange("PlanRangeQuery: channel out of range");
  }
  if (first_frame > last_frame || last_frame >= session.info.num_frames) {
    return Status::OutOfRange("PlanRangeQuery: bad frame range");
  }
  const StoredChannel& stored = session.channels[channel];
  AIMS_ASSIGN_OR_RETURN(
      signal::SparseCoefficients query,
      signal::LazyWaveletTransform(filter_, stored.padded_len, first_frame,
                                   last_frame,
                                   signal::Polynomial::Constant(1.0)));
  std::vector<ScheduledBlock> order = BuildBlockSchedule(*stored.store, query);

  QueryPlan plan;
  plan.session = id;
  plan.channel = channel;
  plan.first_frame = first_frame;
  plan.last_frame = last_frame;
  plan.padded_len = stored.padded_len;
  plan.num_query_coefficients = query.entries.size();
  std::set<size_t> levels;
  for (const auto& [idx, q] : query.entries) {
    (void)q;
    levels.insert(WaveletLevelOf(idx));
  }
  plan.wavelet_levels.assign(levels.begin(), levels.end());
  plan.predicted_blocks = order.size();
  plan.block_size_bytes = config_.block_size_bytes;
  plan.schedule.reserve(order.size());
  for (const ScheduledBlock& work : order) {
    // Residency probe only — Contains never perturbs the cache's LRU
    // order, so EXPLAIN stays free of side effects.
    const bool cached = stored.store->IsBlockCached(work.block);
    if (cached) ++plan.predicted_cached_blocks;
    plan.schedule.push_back(QueryPlanBlockFetch{
        work.block, work.coefficients.size(), work.query_energy, cached});
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
  if (id >= sessions_.size()) {
    return Status::NotFound("QueryRange: unknown session id");
  }
  const StoredSession& session = sessions_[id];
  if (channel >= session.channels.size()) {
    return Status::OutOfRange("QueryRange: channel out of range");
  }
  if (first_frame > last_frame || last_frame >= session.info.num_frames) {
    return Status::OutOfRange("QueryRange: bad frame range");
  }
  const StoredChannel& stored = session.channels[channel];

  // sum_{i in [a,b]} x[i] = <1_[a,b], x> = <Q, X> by Parseval; the lazy
  // transform selects the O(lg n) nonzero Q entries and the store reads
  // only the blocks holding them.
  AIMS_ASSIGN_OR_RETURN(
      signal::SparseCoefficients query,
      signal::LazyWaveletTransform(filter_, stored.padded_len, first_frame,
                                   last_frame,
                                   signal::Polynomial::Constant(1.0)));
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
  if (id >= sessions_.size()) {
    return Status::NotFound("QueryRangeProgressive: unknown session id");
  }
  const StoredSession& session = sessions_[id];
  if (channel >= session.channels.size()) {
    return Status::OutOfRange("QueryRangeProgressive: channel out of range");
  }
  if (first_frame > last_frame || last_frame >= session.info.num_frames) {
    return Status::OutOfRange("QueryRangeProgressive: bad frame range");
  }
  const StoredChannel& stored = session.channels[channel];
  AIMS_ASSIGN_OR_RETURN(
      signal::SparseCoefficients query,
      signal::LazyWaveletTransform(filter_, stored.padded_len, first_frame,
                                   last_frame,
                                   signal::Polynomial::Constant(1.0)));
  std::vector<ScheduledBlock> order = BuildBlockSchedule(*stored.store, query);
  double remaining_query_energy = 0.0;
  for (const ScheduledBlock& work : order) {
    remaining_query_energy += work.query_energy;
  }

  const double count = static_cast<double>(last_frame - first_frame + 1);
  double remaining_data_energy = stored.energy;
  double centered_sum = 0.0;
  ProgressiveRangeResult result;
  result.total_blocks_needed = order.size();
  size_t blocks_read = 0;
  size_t cache_hits = 0;
  for (const ScheduledBlock& work : order) {
    bool hit = false;
    AIMS_ASSIGN_OR_RETURN(auto contents,
                          stored.store->FetchBlock(work.block, &hit));
    ++blocks_read;
    if (hit) ++cache_hits;
    for (const auto& [idx, value] : contents) {
      remaining_data_energy -= value * value;
      for (const auto& [qidx, q] : work.coefficients) {
        if (qidx == idx) centered_sum += q * value;
      }
    }
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
        blocks_read < order.size()) {
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

Result<streams::Recording> AimsSystem::MaterializeSession(SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound("MaterializeSession: unknown session id");
  }
  const SessionInfo& info = sessions_[id].info;
  streams::Recording recording;
  recording.sample_rate_hz = info.sample_rate_hz;
  std::vector<std::vector<double>> channels(info.num_channels);
  for (size_t c = 0; c < info.num_channels; ++c) {
    AIMS_ASSIGN_OR_RETURN(channels[c], ReadChannel(id, c));
  }
  double dt = info.sample_rate_hz > 0.0 ? 1.0 / info.sample_rate_hz : 0.0;
  for (size_t f = 0; f < info.num_frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) * dt;
    frame.values.resize(info.num_channels);
    for (size_t c = 0; c < info.num_channels; ++c) {
      frame.values[c] = channels[c][f];
    }
    recording.Append(std::move(frame));
  }
  return recording;
}

Status AimsSystem::ExportSession(SessionId id,
                                 const std::string& path) const {
  AIMS_ASSIGN_OR_RETURN(streams::Recording recording, MaterializeSession(id));
  return streams::WriteBinary(recording, path);
}

Result<SessionId> AimsSystem::ImportSession(const std::string& name,
                                            const std::string& path) {
  AIMS_ASSIGN_OR_RETURN(streams::Recording recording,
                        streams::ReadBinary(path));
  return IngestRecording(name, recording);
}

Status AimsSystem::SaveCatalog(const std::string& directory) const {
  std::ofstream index(directory + "/catalog.txt");
  if (!index) {
    return Status::IoError("SaveCatalog: cannot open index in " + directory);
  }
  for (const StoredSession& session : sessions_) {
    std::string file = "session_" + std::to_string(session.info.id) + ".aimr";
    AIMS_RETURN_NOT_OK(ExportSession(session.info.id, directory + "/" + file));
    index << file << '\t' << session.info.name << '\n';
  }
  if (!index) {
    return Status::IoError("SaveCatalog: index write failed");
  }
  return Status::OK();
}

Result<std::vector<SessionId>> AimsSystem::LoadCatalog(
    const std::string& directory) {
  std::ifstream index(directory + "/catalog.txt");
  if (!index) {
    return Status::IoError("LoadCatalog: cannot open index in " + directory);
  }
  std::vector<SessionId> ids;
  std::string line;
  while (std::getline(index, line)) {
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::InvalidArgument("LoadCatalog: malformed index line");
    }
    std::string file = line.substr(0, tab);
    std::string name = line.substr(tab + 1);
    AIMS_ASSIGN_OR_RETURN(SessionId id,
                          ImportSession(name, directory + "/" + file));
    ids.push_back(id);
  }
  return ids;
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
