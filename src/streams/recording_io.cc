#include "streams/recording_io.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/macros.h"

namespace aims::streams {

namespace {
constexpr char kMagic[4] = {'A', 'I', 'M', 'R'};
constexpr uint32_t kVersion = 1;

/// Parses one full CSV cell as a double. The entire cell must be consumed:
/// strtod alone would silently turn "1.2.3" into 1.2 and "abc" or "" into
/// 0.0, corrupting the recording without any error.
bool ParseCsvCell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  *out = v;
  return true;
}
}  // namespace

Status WriteCsv(const Recording& recording, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("WriteCsv: cannot open " + path);
  }
  out << "timestamp";
  for (size_t c = 0; c < recording.num_channels(); ++c) {
    out << ",ch" << c;
  }
  out << "\n";
  char buf[64];
  for (const Frame& frame : recording.frames) {
    std::snprintf(buf, sizeof(buf), "%.17g", frame.timestamp);
    out << buf;
    for (double v : frame.values) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << ',' << buf;
    }
    out << "\n";
  }
  if (!out) {
    return Status::IoError("WriteCsv: write failed for " + path);
  }
  return Status::OK();
}

Result<Recording> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("ReadCsv: cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("ReadCsv: empty file " + path);
  }
  // Count channels from the header. A trailing comma promises a channel
  // that no data row can fill — reject it here rather than reporting a
  // confusing "ragged row" on every data row below.
  if (!line.empty() && line.back() == ',') {
    return Status::InvalidArgument(
        "ReadCsv: header has a trailing comma (empty channel name)");
  }
  size_t channels = 0;
  for (char c : line) {
    if (c == ',') ++channels;
  }
  if (channels == 0) {
    return Status::InvalidArgument("ReadCsv: header has no channels");
  }
  Recording recording;
  size_t row_number = 0;  // 1-based data row (header excluded).
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++row_number;
    std::stringstream row(line);
    std::string cell;
    Frame frame;
    if (!std::getline(row, cell, ',')) {
      return Status::InvalidArgument("ReadCsv: malformed row " +
                                     std::to_string(row_number));
    }
    if (!ParseCsvCell(cell, &frame.timestamp)) {
      return Status::InvalidArgument(
          "ReadCsv: invalid number '" + cell + "' at row " +
          std::to_string(row_number) + ", column 0 (timestamp)");
    }
    while (std::getline(row, cell, ',')) {
      double value = 0.0;
      if (!ParseCsvCell(cell, &value)) {
        return Status::InvalidArgument(
            "ReadCsv: invalid number '" + cell + "' at row " +
            std::to_string(row_number) + ", column " +
            std::to_string(frame.values.size() + 1));
      }
      frame.values.push_back(value);
    }
    if (frame.values.size() != channels) {
      return Status::InvalidArgument(
          "ReadCsv: ragged row " + std::to_string(row_number) + " (" +
          std::to_string(frame.values.size()) + " values, header declares " +
          std::to_string(channels) + ")");
    }
    recording.Append(std::move(frame));
  }
  if (recording.num_frames() >= 2) {
    double span = recording.frames.back().timestamp -
                  recording.frames.front().timestamp;
    if (span > 0.0) {
      recording.sample_rate_hz =
          static_cast<double>(recording.num_frames() - 1) / span;
    }
  }
  return recording;
}

Status WriteBinary(const Recording& recording, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("WriteBinary: cannot open " + path);
  }
  out.write(kMagic, 4);
  uint32_t version = kVersion;
  uint64_t frames = recording.num_frames();
  uint64_t channels = recording.num_channels();
  double rate = recording.sample_rate_hz;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&frames), sizeof(frames));
  out.write(reinterpret_cast<const char*>(&channels), sizeof(channels));
  out.write(reinterpret_cast<const char*>(&rate), sizeof(rate));
  for (const Frame& frame : recording.frames) {
    out.write(reinterpret_cast<const char*>(&frame.timestamp),
              sizeof(double));
    out.write(reinterpret_cast<const char*>(frame.values.data()),
              static_cast<std::streamsize>(sizeof(double) *
                                           frame.values.size()));
  }
  if (!out) {
    return Status::IoError("WriteBinary: write failed for " + path);
  }
  return Status::OK();
}

Result<Recording> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("ReadBinary: cannot open " + path);
  }
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("ReadBinary: bad magic in " + path);
  }
  uint32_t version = 0;
  uint64_t frames = 0, channels = 0;
  double rate = 0.0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&frames), sizeof(frames));
  in.read(reinterpret_cast<char*>(&channels), sizeof(channels));
  in.read(reinterpret_cast<char*>(&rate), sizeof(rate));
  if (!in) {
    return Status::InvalidArgument("ReadBinary: truncated header");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("ReadBinary: unsupported version");
  }
  if (channels == 0 || channels > 1u << 20 || frames > 1u << 30) {
    return Status::InvalidArgument("ReadBinary: implausible dimensions");
  }
  // Size nothing by what the header claims until the file holds it: each
  // frame is a timestamp plus one double per channel (< 2^54 bytes in all
  // under the bounds above, so the product cannot wrap).
  const std::streampos data_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff bytes_left = in.tellg() - data_start;
  in.seekg(data_start);
  if (!in || static_cast<uint64_t>(bytes_left) <
                 frames * (channels + 1) * sizeof(double)) {
    return Status::InvalidArgument("ReadBinary: truncated frame data");
  }
  Recording recording;
  recording.sample_rate_hz = rate;
  recording.frames.reserve(frames);
  for (uint64_t f = 0; f < frames; ++f) {
    Frame frame;
    frame.values.resize(channels);
    in.read(reinterpret_cast<char*>(&frame.timestamp), sizeof(double));
    in.read(reinterpret_cast<char*>(frame.values.data()),
            static_cast<std::streamsize>(sizeof(double) * channels));
    if (!in) {
      return Status::InvalidArgument("ReadBinary: truncated frame data");
    }
    recording.Append(std::move(frame));
  }
  return recording;
}

}  // namespace aims::streams
