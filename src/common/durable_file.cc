#include "common/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace aims {

Status WriteFileDurably(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("WriteFileDurably: cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  auto fail = [&](const char* step) {
    Status status = Status::IoError(std::string("WriteFileDurably: ") + step +
                                    " " + tmp + ": " + std::strerror(errno));
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  size_t done = 0;
  while (done < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + done, contents.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write");
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync");
  ::close(fd);
  fd = -1;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return fail("rename");
  std::string dir = std::filesystem::path(path).parent_path().string();
  int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                   O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace aims
