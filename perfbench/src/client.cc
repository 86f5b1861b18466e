#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <ctime>

namespace perfbench {

LoopbackClient::~LoopbackClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (epfd_ >= 0) close(epfd_);
}

bool LoopbackClient::Connect(uint16_t port, int conns) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) return false;
  conns_.resize(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::perror("perfbench: connect");
      return false;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(c);
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  }
  return true;
}

size_t LoopbackClient::total_inflight() const {
  size_t total = 0;
  for (const Conn& conn : conns_) total += conn.inflight.size();
  return total;
}

void LoopbackClient::Send(int conn, int64_t id, const std::string& line,
                          Clock::time_point due, int tag) {
  Conn& c = conns_[conn];
  c.inflight.push_back({id, tag, due});
  c.out += line;
  c.out += '\n';
  late_us_.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - due).count());
  Flush(conn);
}

bool LoopbackClient::Flush(int conn) {
  Conn& c = conns_[conn];
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    c.out_off += static_cast<size_t>(n);
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  UpdateInterest(conn);
  return true;
}

void LoopbackClient::UpdateInterest(int conn) {
  Conn& c = conns_[conn];
  const bool want = !c.out.empty();
  if (want == c.want_out) return;
  c.want_out = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u32 = static_cast<uint32_t>(conn);
  epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
}

namespace {

/// Parses the `{"v":1,"id":N,` prefix every response starts with.
bool ParseIdPrefix(std::string_view line, int64_t* id, size_t* rest) {
  constexpr std::string_view kPrefix = "{\"v\":1,\"id\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  const char* begin = line.data() + kPrefix.size();
  const auto [end, ec] = std::from_chars(begin, line.data() + line.size(), *id);
  if (ec != std::errc()) return false;
  *rest = static_cast<size_t>(end - line.data());
  return true;
}

}  // namespace

bool LoopbackClient::ReadSome(int conn, const Handler& handler) {
  Conn& c = conns_[conn];
  char chunk[65536];
  while (true) {
    const ssize_t n = recv(c.fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return false;
    c.in.append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  const Clock::time_point now = Clock::now();
  size_t start = 0;
  size_t newline;
  while ((newline = c.in.find('\n', start)) != std::string::npos) {
    const std::string_view line(c.in.data() + start, newline - start);
    start = newline + 1;
    if (c.inflight.empty()) return false;  // Response nobody asked for.
    const Pending pending = c.inflight.front();
    c.inflight.pop_front();
    Response r;
    r.conn = conn;
    r.tag = pending.tag;
    r.line = line;
    r.latency_us =
        std::chrono::duration<double, std::micro>(now - pending.due).count();
    size_t rest = 0;
    r.id_ok = ParseIdPrefix(line, &r.id, &rest) && r.id == pending.id;
    r.id = pending.id;
    r.body = line.substr(rest);
    r.ok = r.body.substr(0, 10) == ",\"ok\":true";
    if (!r.ok) {
      constexpr std::string_view kCode = "\"code\":\"";
      const size_t at = r.body.find(kCode);
      if (at != std::string_view::npos) {
        const size_t from = at + kCode.size();
        r.error = r.body.substr(from, r.body.find('"', from) - from);
      }
    }
    handler(r);
  }
  c.in.erase(0, start);
  return true;
}

bool LoopbackClient::Pump(Clock::time_point deadline, const Handler& handler) {
  epoll_event events[64];
  while (true) {
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) return true;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                     static_cast<long>(ns % 1'000'000'000)};
    const int n = epoll_pwait2(epfd_, events, 64, &timeout, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    for (int i = 0; i < n; ++i) {
      const int conn = static_cast<int>(events[i].data.u32);
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        if (!(events[i].events & EPOLLIN)) return false;
      }
      if ((events[i].events & EPOLLOUT) && !Flush(conn)) return false;
      if ((events[i].events & EPOLLIN) && !ReadSome(conn, handler)) {
        return false;
      }
    }
    if (n > 0) return true;
  }
}

bool LoopbackClient::Drain(double timeout_s, const Handler& handler) {
  const Clock::time_point end =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(timeout_s * 1e6));
  while (total_inflight() > 0) {
    if (Clock::now() >= end) return false;
    if (!Pump(end, handler)) return false;
  }
  return true;
}

}  // namespace perfbench
