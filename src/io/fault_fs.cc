#include "io/fault_fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "common/fault.h"
#include "common/hash.h"

namespace stir::io {

namespace {

// Independent decision streams per fault class, decorrelated by salt
// (same scheme as common::FaultInjector's kErrorSalt/kLatencySalt).
constexpr uint64_t kWriteErrorSalt = 0x7C3B9D51E6A2F481ULL;
constexpr uint64_t kShortWriteSalt = 0x2E8D4A7F91C5B63DULL;
constexpr uint64_t kFsyncSalt = 0xB1F49E2C8D57A3E9ULL;
constexpr uint64_t kEintrSalt = 0x6A95C1D24F8E7B35ULL;
constexpr uint64_t kFlipSalt = 0xD48C2F7A1B96E5C3ULL;

/// Nesting depth of FaultFs::ScopedBypass on this thread.
thread_local int t_bypass_depth = 0;

}  // namespace

FaultFs::ScopedBypass::ScopedBypass() { ++t_bypass_depth; }
FaultFs::ScopedBypass::~ScopedBypass() { --t_bypass_depth; }

bool FaultFs::Active() const {
  return enabled_.load(std::memory_order_relaxed) && t_bypass_depth == 0;
}

FaultFs& FaultFs::Instance() {
  static FaultFs* instance = new FaultFs();
  return *instance;
}

void FaultFs::Configure(const FaultFsOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  write_ops_.store(0, std::memory_order_relaxed);
  fsync_ops_.store(0, std::memory_order_relaxed);
  open_ops_.store(0, std::memory_order_relaxed);
  fwrite_ops_.store(0, std::memory_order_relaxed);
  bytes_written_.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  recovered_.store(0, std::memory_order_relaxed);
  surfaced_.store(0, std::memory_order_relaxed);
  quarantined_.store(0, std::memory_order_relaxed);
  short_writes_.store(0, std::memory_order_relaxed);
  eintr_.store(0, std::memory_order_relaxed);
  write_errors_.store(0, std::memory_order_relaxed);
  fsync_failures_.store(0, std::memory_order_relaxed);
  enospc_.store(0, std::memory_order_relaxed);
  page_flips_.store(0, std::memory_order_relaxed);
  // Published last: a wrapper that observes enabled_ true sees the new
  // schedule under mu_ in options(); one that observes false takes the
  // pass-through fast path, which is always safe.
  enabled_.store(options.enabled(), std::memory_order_release);
}

FaultFsOptions FaultFs::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

FaultFsStats FaultFs::stats() const {
  FaultFsStats stats;
  stats.injected = injected_.load(std::memory_order_relaxed);
  stats.recovered = recovered_.load(std::memory_order_relaxed);
  stats.surfaced = surfaced_.load(std::memory_order_relaxed);
  stats.quarantined = quarantined_.load(std::memory_order_relaxed);
  stats.short_writes = short_writes_.load(std::memory_order_relaxed);
  stats.eintr = eintr_.load(std::memory_order_relaxed);
  stats.write_errors = write_errors_.load(std::memory_order_relaxed);
  stats.fsync_failures = fsync_failures_.load(std::memory_order_relaxed);
  stats.enospc = enospc_.load(std::memory_order_relaxed);
  stats.page_flips = page_flips_.load(std::memory_order_relaxed);
  return stats;
}

ssize_t FaultFs::Write(int fd, const void* buf, size_t count) {
  if (!Active()) {
    return ::write(fd, buf, count);
  }
  FaultFsOptions opts = options();
  const int64_t index = write_ops_.fetch_add(1, std::memory_order_relaxed);
  if (opts.eintr_rate > 0.0 &&
      common::FaultUniformAt(opts.seed, kEintrSalt, index, 0) <
          opts.eintr_rate) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    eintr_.fetch_add(1, std::memory_order_relaxed);
    recovered_.fetch_add(1, std::memory_order_relaxed);
    errno = EINTR;
    return -1;
  }
  if (opts.enospc_after_bytes >= 0 &&
      bytes_written_.load(std::memory_order_relaxed) +
              static_cast<int64_t>(count) >
          opts.enospc_after_bytes) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    enospc_.fetch_add(1, std::memory_order_relaxed);
    surfaced_.fetch_add(1, std::memory_order_relaxed);
    errno = ENOSPC;
    return -1;
  }
  if (opts.write_error_rate > 0.0 &&
      common::FaultUniformAt(opts.seed, kWriteErrorSalt, index, 0) <
          opts.write_error_rate) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    surfaced_.fetch_add(1, std::memory_order_relaxed);
    errno = EIO;
    return -1;
  }
  size_t attempt = count;
  bool short_write = false;
  if (count > 1 && opts.short_write_rate > 0.0 &&
      common::FaultUniformAt(opts.seed, kShortWriteSalt, index, 0) <
          opts.short_write_rate) {
    attempt = count / 2;
    short_write = true;
  }
  ssize_t n = ::write(fd, buf, attempt);
  if (n >= 0) {
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
    if (short_write) {
      // Counted only when the truncated write actually landed: the
      // caller's write-all loop now owes the remainder, which is the
      // recovery this class exists to exercise.
      injected_.fetch_add(1, std::memory_order_relaxed);
      short_writes_.fetch_add(1, std::memory_order_relaxed);
      recovered_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return n;
}

int FaultFs::Fsync(int fd) {
  if (!Active()) {
    return ::fsync(fd);
  }
  FaultFsOptions opts = options();
  const int64_t index = fsync_ops_.fetch_add(1, std::memory_order_relaxed);
  if (opts.fsync_error_rate > 0.0 &&
      common::FaultUniformAt(opts.seed, kFsyncSalt, index, 0) <
          opts.fsync_error_rate) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    fsync_failures_.fetch_add(1, std::memory_order_relaxed);
    surfaced_.fetch_add(1, std::memory_order_relaxed);
    errno = EIO;
    return -1;
  }
  return ::fsync(fd);
}

int FaultFs::Open(const char* path, int flags, mode_t mode) {
  if (!Active()) {
    return ::open(path, flags, mode);
  }
  FaultFsOptions opts = options();
  const int64_t index = open_ops_.fetch_add(1, std::memory_order_relaxed);
  if (opts.eintr_rate > 0.0 &&
      common::FaultUniformAt(opts.seed, kEintrSalt, ~index, 0) <
          opts.eintr_rate) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    eintr_.fetch_add(1, std::memory_order_relaxed);
    recovered_.fetch_add(1, std::memory_order_relaxed);
    errno = EINTR;
    return -1;
  }
  const bool write_intent = (flags & (O_WRONLY | O_RDWR | O_CREAT)) != 0;
  if (write_intent && opts.enospc_after_bytes >= 0 &&
      bytes_written_.load(std::memory_order_relaxed) >
          opts.enospc_after_bytes) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    enospc_.fetch_add(1, std::memory_order_relaxed);
    surfaced_.fetch_add(1, std::memory_order_relaxed);
    errno = ENOSPC;
    return -1;
  }
  return ::open(path, flags, mode);
}

size_t FaultFs::Fwrite(const void* ptr, size_t size, size_t nitems,
                       std::FILE* f) {
  if (!Active()) {
    return std::fwrite(ptr, size, nitems, f);
  }
  FaultFsOptions opts = options();
  const int64_t index = fwrite_ops_.fetch_add(1, std::memory_order_relaxed);
  const int64_t bytes = static_cast<int64_t>(size) *
                        static_cast<int64_t>(nitems);
  if (opts.enospc_after_bytes >= 0 &&
      bytes_written_.load(std::memory_order_relaxed) + bytes >
          opts.enospc_after_bytes) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    enospc_.fetch_add(1, std::memory_order_relaxed);
    surfaced_.fetch_add(1, std::memory_order_relaxed);
    errno = ENOSPC;
    return 0;
  }
  if (opts.write_error_rate > 0.0 &&
      common::FaultUniformAt(opts.seed, kWriteErrorSalt, ~index, 0) <
          opts.write_error_rate) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    surfaced_.fetch_add(1, std::memory_order_relaxed);
    errno = EIO;
    return 0;
  }
  size_t n = std::fwrite(ptr, size, nitems, f);
  bytes_written_.fetch_add(static_cast<int64_t>(n) *
                               static_cast<int64_t>(size),
                           std::memory_order_relaxed);
  return n;
}

bool FaultFs::FlipWindow(uint64_t file_salt, int64_t window_index) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  FaultFsOptions opts = options();
  if (opts.page_flip_rate <= 0.0) return false;
  const uint64_t salt = HashCombine(kFlipSalt, file_salt);
  if (common::FaultUniformAt(opts.seed, salt, window_index, 0) >=
      opts.page_flip_rate) {
    return false;
  }
  injected_.fetch_add(1, std::memory_order_relaxed);
  page_flips_.fetch_add(1, std::memory_order_relaxed);
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FaultFs::NoteExternalQuarantine(int64_t n) {
  if (n <= 0) return;
  injected_.fetch_add(n, std::memory_order_relaxed);
  quarantined_.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace stir::io
