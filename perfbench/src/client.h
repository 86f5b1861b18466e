// Single-threaded loopback load client for stir_serve: several TCP
// connections on one epoll loop, pipelined NDJSON requests, in-order
// responses matched to requests by id. Latency is measured from each
// request's due time, so an open-loop schedule counts the wait a server
// stall imposes on the requests behind it.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util.h"

namespace perfbench {

/// One answered request.
struct Response {
  int conn = 0;
  int64_t id = 0;
  int tag = 0;              ///< Caller's label, echoed from Send.
  double latency_us = 0;    ///< Due time to full response read.
  bool id_ok = false;       ///< Response id equals the request id.
  bool ok = false;          ///< "ok":true.
  std::string_view error;   ///< Error code when !ok.
  std::string_view body;    ///< Line with the id prefix removed.
  std::string_view line;    ///< Whole response line.
};

class LoopbackClient {
 public:
  using Handler = std::function<void(const Response&)>;

  LoopbackClient() = default;
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  bool Connect(uint16_t port, int conns);
  /// Queues `line` on connection `conn`; it is due at `due` (the latency
  /// origin) and is written at once when the socket accepts it.
  void Send(int conn, int64_t id, const std::string& line,
            Clock::time_point due, int tag);
  /// Runs the event loop until `deadline`, handing every response to
  /// `handler`. Returns false on a socket error or a closed connection.
  bool Pump(Clock::time_point deadline, const Handler& handler);
  /// Pumps until no request is outstanding or `timeout_s` passes.
  bool Drain(double timeout_s, const Handler& handler);

  size_t inflight(int conn) const { return conns_[conn].inflight.size(); }
  size_t total_inflight() const;
  int conns() const { return static_cast<int>(conns_.size()); }
  /// Lateness of each send behind its due time, in microseconds.
  const std::vector<double>& late_us() const { return late_us_; }

 private:
  struct Pending {
    int64_t id;
    int tag;
    Clock::time_point due;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    bool want_out = false;
    std::string in;
    std::deque<Pending> inflight;
  };
  bool Flush(int conn);
  bool ReadSome(int conn, const Handler& handler);
  void UpdateInterest(int conn);

  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::vector<double> late_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
