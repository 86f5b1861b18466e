#include "util.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Result::HasMetric(const std::string& name) const {
  for (const auto& metric : metrics_) {
    if (metric.first == name) return true;
  }
  return false;
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = metrics_[i].second.first;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out << (i == 0 ? "" : ", ") << '"' << metrics_[i].first
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

void SpanLog::Add(const std::string& name, Clock::time_point start) {
  if (!enabled_) return;
  const Clock::time_point end = Clock::now();
  spans_.push_back(
      {name,
       std::chrono::duration<double, std::micro>(start - origin_).count(),
       std::chrono::duration<double, std::micro>(end - start).count()});
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", spans_[i].name.c_str(),
                 spans_[i].start_us, spans_[i].dur_us);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double CpuSeconds(pid_t pid) {
  std::string stat;
  if (!ReadFile("/proc/" + std::to_string(pid) + "/stat", &stat)) return -1;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 overall, i.e. the 12th and 13th after ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && (fields >> field); ++i) {
    if (i >= 12) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (err_fd_ >= 0) close(err_fd_);
}

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& stdin_path,
                  const std::string& stdout_path) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return false;
  const int in_fd = open(stdin_path.empty() ? "/dev/null" : stdin_path.c_str(),
                         O_RDONLY | O_CLOEXEC);
  const int out_fd =
      open(stdout_path.empty() ? "/dev/null" : stdout_path.c_str(),
           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (in_fd < 0 || out_fd < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    if (in_fd >= 0) close(in_fd);
    if (out_fd >= 0) close(out_fd);
    return false;
  }
  std::vector<char*> cargv;
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(in_fd, 0);
    dup2(out_fd, 1);
    dup2(pipe_fds[1], 2);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(in_fd);
  close(out_fd);
  close(pipe_fds[1]);
  if (pid < 0) {
    close(pipe_fds[0]);
    return false;
  }
  pid_ = pid;
  err_fd_ = pipe_fds[0];
  return true;
}

bool Child::WaitForLine(const std::string& needle, double timeout_s,
                        std::string* line) {
  const Clock::time_point start = Clock::now();
  while (true) {
    size_t newline;
    while ((newline = buffer_.find('\n')) != std::string::npos) {
      std::string current = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      log_ += current + "\n";
      if (current.find(needle) != std::string::npos) {
        if (line != nullptr) *line = current;
        return true;
      }
    }
    const double left = timeout_s - SecondsSince(start);
    if (err_fd_ < 0 || left <= 0) return false;
    pollfd pfd{err_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = read(err_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close(err_fd_);
      err_fd_ = -1;
      if (buffer_.empty()) return false;
      buffer_ += '\n';
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

int Child::Wait(double timeout_s) {
  if (pid_ <= 0) return -1;
  const Clock::time_point start = Clock::now();
  while (true) {
    // Keep the stderr pipe drained so a chatty child never blocks on it.
    if (err_fd_ >= 0) {
      pollfd pfd{err_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 10) > 0) {
        char chunk[4096];
        const ssize_t n = read(err_fd_, chunk, sizeof(chunk));
        if (n > 0) {
          log_.append(chunk, static_cast<size_t>(n));
        } else if (n == 0) {
          close(err_fd_);
          err_fd_ = -1;
        }
      }
    } else {
      usleep(10'000);
    }
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (SecondsSince(start) > timeout_s) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return -1;
    }
  }
}

int Child::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  return Wait(timeout_s);
}

bool RunToCompletion(const std::vector<std::string>& argv,
                     const std::string& stdout_path, double timeout_s) {
  Child child;
  if (!child.Start(argv, "", stdout_path)) return false;
  const int status = child.Wait(timeout_s);
  if (status != 0) {
    std::fprintf(stderr, "perfbench: %s exited %d:\n%s", argv[0].c_str(),
                 status, child.log().c_str());
  }
  return status == 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

double HistogramQuantile(const std::vector<int64_t>& bounds,
                         const std::vector<int64_t>& counts, double q) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(bounds[std::min(i, bounds.size() - 1)]);
    }
  }
  return static_cast<double>(bounds.back());
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace perfbench
