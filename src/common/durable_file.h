#pragma once

#include <string>
#include <string_view>

#include "common/status.h"

/// \file durable_file.h
/// \brief Atomic, durable whole-file replacement.

namespace aims {

/// \brief Replaces \p path with \p contents: writes `<path>.tmp`, fsyncs
/// it, renames it over \p path, then fsyncs the directory so the rename
/// itself survives a power cut. Readers (and a crash) see the old file or
/// the new one, never a torn mix. IoError when any step fails, with the
/// tmp file removed.
Status WriteFileDurably(const std::string& path, std::string_view contents);

}  // namespace aims
