#ifndef STIR_IO_SNAPSHOT_H_
#define STIR_IO_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace stir::io {

/// Single-blob durable container: the format every atomic snapshot in the
/// tree shares (study checkpoints).
///
///   bytes 0..7   caller-chosen 8-byte magic (file-type tag)
///   bytes 8..11  u32 container format version (kSnapshotFormatVersion)
///   bytes 12..15 u32 CRC32C of the payload
///   bytes 16..23 u64 payload size
///   bytes 24..   payload
///
/// Written via AtomicWriteFile, so a crash mid-save leaves the previous
/// snapshot (or nothing) — never a torn file. Read rejects bad magic,
/// version, size, and checksum with InvalidArgument; a missing file is
/// IOError (callers distinguish "no snapshot yet" from "corrupt").
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr size_t kSnapshotMagicSize = 8;
inline constexpr size_t kSnapshotHeaderSize = 24;

/// `magic` must be exactly kSnapshotMagicSize bytes.
Status WriteSnapshotFile(const std::string& path, std::string_view magic,
                         std::string_view payload, bool fsync = true);

/// Returns the verified payload.
StatusOr<std::string> ReadSnapshotFile(const std::string& path,
                                       std::string_view magic);

/// True when `contents` begins with the 8-byte snapshot magic `magic`
/// (format sniffing for readers that also accept legacy layouts).
bool SnapshotHasMagic(std::string_view contents, std::string_view magic);

}  // namespace stir::io

#endif  // STIR_IO_SNAPSHOT_H_
