#include "storage/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/macros.h"

namespace aims::storage::durable {

namespace {

constexpr uint32_t kSuperMagic = 0x53474150u;  // "PAGS"
constexpr uint32_t kPageMagic = 0x45474150u;   // "PAGE"
constexpr uint32_t kVersion = 1;
constexpr uint64_t kSuperblockSize = 64;
constexpr uint64_t kPageHeaderSize = 24;

struct Superblock {
  uint32_t magic = kSuperMagic;
  uint32_t version = kVersion;
  uint64_t block_size = 0;
  uint64_t epoch = 0;
  uint32_t crc = 0;  ///< CRC-32 of the 24 bytes above.

  static constexpr size_t kCrcCoverage = 24;
};

struct PageHeader {
  uint32_t magic = kPageMagic;
  uint32_t block_id = 0;
  uint64_t epoch = 0;
  uint32_t payload_size = 0;
  uint32_t crc = 0;  ///< CRC-32 of the payload bytes.
};

static_assert(sizeof(Superblock) <= kSuperblockSize);
static_assert(sizeof(PageHeader) == kPageHeaderSize);

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// pwrite that retries short writes and EINTR until \p len is on the file.
Status PwriteFully(int fd, const void* data, size_t len, uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pwrite(fd, p + done, len - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("FileBlockDevice: pwrite failed");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// pread that retries EINTR; returns bytes read (short at end of file).
Result<size_t> PreadUpTo(int fd, void* data, size_t len, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n =
        ::pread(fd, p + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kIoError,
                    std::string("FileBlockDevice: pread failed: ") +
                        std::strerror(errno));
    }
    if (n == 0) break;  // end of file
    done += static_cast<size_t>(n);
  }
  return done;
}

}  // namespace

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(
    const std::string& path, size_t block_size_bytes,
    DiskCostModel cost_model) {
  if (block_size_bytes == 0) {
    return Status::InvalidArgument("FileBlockDevice::Open: zero block size");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return ErrnoError("FileBlockDevice::Open: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status status = ErrnoError("FileBlockDevice::Open: fstat " + path);
    ::close(fd);
    return status;
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  size_t num_blocks = 0;
  uint64_t epoch = 1;
  if (file_size == 0) {
    // Fresh file: lay down the superblock so a crash right after creation
    // still leaves a recognizable (empty) device.
    auto device = std::unique_ptr<FileBlockDevice>(new FileBlockDevice(
        path, fd, block_size_bytes, cost_model, /*num_blocks=*/0, epoch));
    Status status = device->WriteSuperblock();
    if (status.ok() && ::fsync(fd) != 0) {
      status = ErrnoError("FileBlockDevice::Open: fsync " + path);
    }
    if (!status.ok()) return status;
    return device;
  }

  uint8_t raw[kSuperblockSize] = {};
  Result<size_t> read = PreadUpTo(fd, raw, sizeof(raw), /*offset=*/0);
  if (!read.ok()) {
    ::close(fd);
    return read.status();
  }
  const size_t got = *read;
  Superblock sb;
  if (got < sizeof(Superblock)) {
    ::close(fd);
    return Status::IoError("FileBlockDevice::Open: truncated superblock in " +
                           path);
  }
  std::memcpy(&sb, raw, sizeof(sb));
  if (sb.magic != kSuperMagic || sb.version != kVersion) {
    ::close(fd);
    return Status::InvalidArgument(
        "FileBlockDevice::Open: not a page file: " + path);
  }
  if (sb.crc != Crc32(raw, Superblock::kCrcCoverage)) {
    ::close(fd);
    return Status::IoError(
        "FileBlockDevice::Open: superblock checksum mismatch in " + path);
  }
  if (sb.block_size != block_size_bytes) {
    ::close(fd);
    return Status::InvalidArgument(
        "FileBlockDevice::Open: block size mismatch in " + path +
        " (file has " + std::to_string(sb.block_size) + ", caller wants " +
        std::to_string(block_size_bytes) + ")");
  }
  // The block count is implied by the file length: Allocate extends the
  // file by its (sparse) slots. Partial trailing slots — a crash mid-extend
  // — round down; such blocks were never written, let alone committed.
  const uint64_t slot = kPageHeaderSize + block_size_bytes;
  if (file_size > kSuperblockSize) {
    num_blocks = static_cast<size_t>((file_size - kSuperblockSize) / slot);
  }
  epoch = sb.epoch + 1;
  return std::unique_ptr<FileBlockDevice>(new FileBlockDevice(
      path, fd, block_size_bytes, cost_model, num_blocks, epoch));
}

FileBlockDevice::FileBlockDevice(std::string path, int fd,
                                 size_t block_size_bytes,
                                 DiskCostModel cost_model, size_t num_blocks,
                                 uint64_t epoch)
    : BlockDevice(block_size_bytes, cost_model),
      path_(std::move(path)),
      fd_(fd),
      num_blocks_(num_blocks),
      epoch_(epoch) {}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
}

uint64_t FileBlockDevice::SlotSize() const {
  return kPageHeaderSize + block_size_bytes();
}

uint64_t FileBlockDevice::SlotOffset(BlockId id) const {
  return kSuperblockSize + static_cast<uint64_t>(id) * SlotSize();
}

Status FileBlockDevice::WriteSuperblock() {
  uint8_t raw[kSuperblockSize] = {};
  Superblock sb;
  sb.block_size = block_size_bytes();
  sb.epoch = epoch_.load(std::memory_order_relaxed);
  std::memcpy(raw, &sb, sizeof(sb));
  const uint32_t crc = Crc32(raw, Superblock::kCrcCoverage);
  std::memcpy(raw + offsetof(Superblock, crc), &crc, sizeof(crc));
  return PwriteFully(fd_, raw, sizeof(raw), /*offset=*/0);
}

Status FileBlockDevice::SyncPages() {
  AIMS_RETURN_NOT_OK(WriteSuperblock());
  if (::fsync(fd_) != 0) {
    return ErrnoError("FileBlockDevice::SyncPages: fsync " + path_);
  }
  return Status::OK();
}

BlockId FileBlockDevice::DoAllocate(size_t count) {
  const size_t id = num_blocks_.load(std::memory_order_relaxed);
  // Best-effort file extension, one per call, so the block count survives
  // reopen even if the slots are never written. pwrite extends the file
  // anyway on the first write, so an ftruncate failure only loses count of
  // trailing unwritten (hence uncommitted) blocks.
  (void)::ftruncate(fd_, static_cast<off_t>(kSuperblockSize +
                                            static_cast<uint64_t>(id + count) *
                                                SlotSize()));
  num_blocks_.store(id + count, std::memory_order_release);
  return static_cast<BlockId>(id);
}

Status FileBlockDevice::DoWrite(BlockId id, const std::vector<uint8_t>& payload,
                                uint32_t payload_crc) {
  PageHeader header;
  header.block_id = id;
  header.epoch = epoch_.fetch_add(1, std::memory_order_relaxed);
  header.payload_size = static_cast<uint32_t>(payload.size());
  header.crc = payload_crc;
  // One contiguous pwrite of header + payload: a crash can tear it, but
  // the CRC (over the payload the caller intended) makes the tear
  // detectable on read — which is all the WAL needs, since committed data
  // is re-writable from the log.
  std::vector<uint8_t> buf(kPageHeaderSize + payload.size());
  std::memcpy(buf.data(), &header, sizeof(header));
  std::memcpy(buf.data() + kPageHeaderSize, payload.data(), payload.size());
  return PwriteFully(fd_, buf.data(), buf.size(), SlotOffset(id));
}

Result<std::vector<uint8_t>> FileBlockDevice::DoRead(BlockId id) const {
  uint8_t raw[kPageHeaderSize] = {};
  AIMS_ASSIGN_OR_RETURN(size_t got,
                        PreadUpTo(fd_, raw, sizeof(raw), SlotOffset(id)));
  PageHeader header;
  std::memcpy(&header, raw, sizeof(header));
  if (got < sizeof(header) || header.magic == 0) {
    // Allocated but never written (sparse slot): same semantics as the
    // in-memory backend — an empty payload, not an error.
    return std::vector<uint8_t>{};
  }
  if (header.magic != kPageMagic) {
    return Status::IoError("FileBlockDevice::Read: bad page magic (torn or "
                           "foreign write) at block " +
                           std::to_string(id));
  }
  if (header.block_id != id) {
    return Status::IoError("FileBlockDevice::Read: page claims block " +
                           std::to_string(header.block_id) + " in slot " +
                           std::to_string(id));
  }
  if (header.payload_size > block_size_bytes()) {
    return Status::IoError(
        "FileBlockDevice::Read: impossible payload size at block " +
        std::to_string(id));
  }
  std::vector<uint8_t> payload(header.payload_size);
  if (!payload.empty()) {
    AIMS_ASSIGN_OR_RETURN(
        size_t payload_got,
        PreadUpTo(fd_, payload.data(), payload.size(),
                  SlotOffset(id) + kPageHeaderSize));
    if (payload_got < payload.size()) {
      return Status::IoError("FileBlockDevice::Read: torn page at block " +
                             std::to_string(id));
    }
  }
  if (Crc32(payload.data(), payload.size()) != header.crc) {
    return Status::IoError("FileBlockDevice::Read: checksum mismatch at "
                           "block " +
                           std::to_string(id));
  }
  return payload;
}

}  // namespace aims::storage::durable
