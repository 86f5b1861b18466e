#ifndef STIR_IO_FAULT_FS_H_
#define STIR_IO_FAULT_FS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>

namespace stir::io {

/// Configuration for the filesystem fault layer (DESIGN.md §15). Every
/// stochastic knob draws from the shared common::FaultUniformAt stream,
/// keyed on a per-category operation counter — so a given (seed, knob,
/// op-index) triple always yields the same decision, in any thread
/// interleaving, and a crashed-and-resumed run that replays the same
/// operation sequence replays the same faults.
///
/// Fault classes and how the hardened callers must absorb them:
///
///   short write   write() lands a partial count      -> RECOVERED by the
///   EINTR         the syscall is "interrupted"          caller's retry loop
///
///   EIO           write()/fwrite()/fsync() fails     -> SURFACED as a typed
///   ENOSPC        the simulated disk fills up           Status, with no
///   fsync fail    durability barrier fails              partial on-disk
///                                                       state left behind
///
///   page flip     a released-and-refaulted corpus    -> QUARANTINED by the
///                 window reads back corrupt             window re-verify
///
/// The layer is process-wide (one simulated disk per process) and
/// default-off: with no knobs set every wrapper is a tail call into the
/// real syscall behind one relaxed atomic load.
struct FaultFsOptions {
  uint64_t seed = 0;
  /// Per-call probability that a write()/fwrite() fails with EIO.
  double write_error_rate = 0.0;
  /// Per-call probability that a write() lands only half its bytes.
  /// Harmless by design: every caller runs a write-all retry loop.
  double short_write_rate = 0.0;
  /// Per-call probability that fsync()/fdatasync() fails with EIO.
  double fsync_error_rate = 0.0;
  /// Per-call probability that read/write/open is interrupted (EINTR).
  double eintr_rate = 0.0;
  /// Simulated disk capacity: once this many payload bytes have been
  /// written through the layer, further writes fail with ENOSPC. < 0
  /// disables.
  int64_t enospc_after_bytes = -1;
  /// Per-window probability that a released corpus window reads back
  /// corrupt when re-verified (simulating a flipped page under the map).
  double page_flip_rate = 0.0;

  bool any_write_faults() const {
    return write_error_rate > 0.0 || short_write_rate > 0.0 ||
           fsync_error_rate > 0.0 || eintr_rate > 0.0 ||
           enospc_after_bytes >= 0;
  }
  bool enabled() const { return any_write_faults() || page_flip_rate > 0.0; }
};

/// Counters for the fault-accounting invariant the tests pin down:
///     injected == recovered + surfaced + quarantined
/// Classification happens at injection time, by construction: short
/// writes and EINTR are always completed by the mandatory retry loops
/// (recovered); EIO / ENOSPC / fsync failures abort the operation and
/// must come back as a Status (surfaced); page flips are absorbed by the
/// corpus window quarantine (quarantined).
struct FaultFsStats {
  int64_t injected = 0;
  int64_t recovered = 0;
  int64_t surfaced = 0;
  int64_t quarantined = 0;

  // Per-class breakdown (each also counted in `injected`).
  int64_t short_writes = 0;
  int64_t eintr = 0;
  int64_t write_errors = 0;
  int64_t fsync_failures = 0;
  int64_t enospc = 0;
  int64_t page_flips = 0;
};

/// Process-wide seeded fault layer at the I/O boundary. All durable-write
/// primitives under src/io route their syscalls through these wrappers;
/// the wrappers inject per FaultFsOptions and otherwise forward to the
/// real call. Thread-safe; decision streams are deterministic per
/// category because each category claims indices from its own counter.
class FaultFs {
 public:
  /// The process-wide instance (never destroyed).
  static FaultFs& Instance();

  /// Installs a new fault schedule and zeroes the counters. Passing a
  /// default-constructed options turns the layer off.
  void Configure(const FaultFsOptions& options);
  /// Shorthand for Configure({}).
  void Reset() { Configure(FaultFsOptions()); }

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// While one is alive, the syscall wrappers on the constructing thread
  /// forward straight to the real call: no fault-schedule index is drawn
  /// and no byte counts toward the ENOSPC budget. For scratch files the
  /// process writes for itself (io::ArenaFromDataset), which are not part
  /// of the simulated disk's durable state.
  class ScopedBypass {
   public:
    ScopedBypass();
    ~ScopedBypass();
    ScopedBypass(const ScopedBypass&) = delete;
    ScopedBypass& operator=(const ScopedBypass&) = delete;
  };

  FaultFsOptions options() const;
  FaultFsStats stats() const;

  // --- syscall wrappers (inject, then forward) -------------------------

  /// ::write with injected EIO / ENOSPC / EINTR / short writes. Callers
  /// MUST run a write-all loop that retries EINTR and continues after a
  /// short count — that loop is what turns those two classes into
  /// "recovered".
  ssize_t Write(int fd, const void* buf, size_t count);

  /// ::fsync with injected failure.
  int Fsync(int fd);

  /// ::open with injected EINTR (retry-looped by callers) and, for
  /// write-intent opens, ENOSPC once the simulated disk is full.
  int Open(const char* path, int flags, mode_t mode);

  /// std::fwrite with injected EIO / ENOSPC (sets errno, returns a short
  /// item count, which stdio callers treat as a hard error). The stdio
  /// path gets no short-write/EINTR classes: a buffered writer cannot
  /// retry a partial fwrite without desyncing its CRC accounting.
  size_t Fwrite(const void* ptr, size_t size, size_t nitems, std::FILE* f);

  // --- reader-side hooks ----------------------------------------------

  /// Deterministic flip decision for corpus window re-verification:
  /// true means "window `window_index` of the file salted by `file_salt`
  /// reads back corrupt". Counts one injected page flip (quarantined) on
  /// each true decision for a window not yet flipped this configuration
  /// (the caller quarantines it exactly once).
  bool FlipWindow(uint64_t file_salt, int64_t window_index);

  /// Reader-side quarantine accounting for faults the layer did not
  /// inject itself (a real SIGBUS or a real CRC mismatch absorbed by a
  /// degraded path). Counts injected + quarantined so externally-induced
  /// corruption folds into the same invariant.
  void NoteExternalQuarantine(int64_t n);

 private:
  FaultFs() = default;

  /// Enabled, and not bypassed on this thread.
  bool Active() const;

  mutable std::mutex mu_;
  FaultFsOptions options_;
  std::atomic<bool> enabled_{false};

  std::atomic<int64_t> write_ops_{0};
  std::atomic<int64_t> fsync_ops_{0};
  std::atomic<int64_t> open_ops_{0};
  std::atomic<int64_t> fwrite_ops_{0};
  std::atomic<int64_t> bytes_written_{0};

  std::atomic<int64_t> injected_{0};
  std::atomic<int64_t> recovered_{0};
  std::atomic<int64_t> surfaced_{0};
  std::atomic<int64_t> quarantined_{0};
  std::atomic<int64_t> short_writes_{0};
  std::atomic<int64_t> eintr_{0};
  std::atomic<int64_t> write_errors_{0};
  std::atomic<int64_t> fsync_failures_{0};
  std::atomic<int64_t> enospc_{0};
  std::atomic<int64_t> page_flips_{0};
};

}  // namespace stir::io

#endif  // STIR_IO_FAULT_FS_H_
