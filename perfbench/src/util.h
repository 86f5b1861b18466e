// Shared plumbing for the benchmark driver: clocks, order statistics,
// process probes (/proc), child processes, benchmark-side trace spans,
// and the result line.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Command line of one run, as the driver receives it.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;    ///< stir_cli binary.
  std::string serve;  ///< stir_serve binary.
  std::string work;   ///< Scratch directory for corpora and reports.
};

/// Operation accounting and correctness verdict of one run. Check()
/// records a failed correctness check with a message on stderr; a run
/// with any failed check prints "correct": false.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  bool Check(bool ok, const std::string& what);
  bool HasMetric(const std::string& name) const;
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  /// The single JSON object the benchmark prints as its last line.
  std::string ToJson() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Benchmark-side spans around calls into the program, written as Chrome
/// trace_event JSON (chrome://tracing, Perfetto). Disabled tracers
/// record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  /// Records a complete span [start, now).
  void Add(const std::string& name, Clock::time_point start);
  bool WriteChromeJson(const std::string& path) const;
  bool enabled() const { return enabled_; }

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Runs `fn` and records its wall time as a span named `name`.
template <typename Fn>
double Timed(SpanLog* log, const std::string& name, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const double seconds = SecondsSince(start);
  if (log != nullptr && log->enabled()) log->Add(name, start);
  return seconds;
}

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// User + system CPU seconds consumed so far by `pid`; -1 when unreadable.
double CpuSeconds(pid_t pid);

/// A child process with its stderr piped back. The destructor kills and
/// reaps a child that is still running.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv` with stdin from `stdin_path` (empty: /dev/null) and
  /// stdout to `stdout_path` (empty: /dev/null).
  bool Start(const std::vector<std::string>& argv,
             const std::string& stdin_path = "",
             const std::string& stdout_path = "");
  /// Reads stderr lines until one contains `needle`; false on EOF or
  /// after `timeout_s`. Every line read is appended to log().
  bool WaitForLine(const std::string& needle, double timeout_s,
                   std::string* line = nullptr);
  /// Sends SIGTERM (graceful drain) and reaps; returns the exit status,
  /// or -1 when it had to be killed after `timeout_s`.
  int Stop(double timeout_s);
  /// Waits for exit; returns the exit status (-1 on signal/timeout).
  int Wait(double timeout_s);
  pid_t pid() const { return pid_; }
  const std::string& log() const { return log_; }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::string buffer_;
  std::string log_;
};

/// Runs `argv` to completion (stdout to `stdout_path`); true on exit 0.
bool RunToCompletion(const std::vector<std::string>& argv,
                     const std::string& stdout_path, double timeout_s);

bool ReadFile(const std::string& path, std::string* out);

/// Approximate quantile of a program histogram from its bucket counts:
/// the upper bound of the bucket holding the q-th sample (the last
/// bound for the overflow bucket).
double HistogramQuantile(const std::vector<int64_t>& bounds,
                         const std::vector<int64_t>& counts, double q);

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  template <typename Rng>
  size_t operator()(Rng& rng) const {
    return Sample(static_cast<double>(rng() >> 11) * 0x1.0p-53);
  }
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Workload entry points (one per BENCHMARK.json workload).
void RunStudyBatch(const Args& args, Clock::time_point process_start,
                   Result* result);
void RunServeRead(const Args& args, Clock::time_point process_start,
                  Result* result);
void RunStreamMixed(const Args& args, Clock::time_point process_start,
                    Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
