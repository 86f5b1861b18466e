// serve_read: stir_serve (batch, 2 workers) on a generated corpus, driven
// over loopback TCP by this single-threaded client with a Zipf-skewed
// read mix: an open-loop phase at a fixed rate well under capacity, then
// a closed-loop phase at fixed connections x pipeline window. Protocol
// parsing, scheduler batching, epoll framing and O(1) index reads carry
// the load; refinement runs only at server start-up.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "client.h"
#include "util.h"
#include "workload_common.h"
#include "workload_reads.h"

namespace perfbench {
namespace {

/// Korean-preset scale of the served corpus: 104k crawled users, about
/// 2.1k final users.
constexpr double kServeScale = 2.0;
/// Client connections; the open-loop phase spreads its requests over
/// them round-robin.
constexpr int kConns = 4;
/// Open-loop phase: fixed rate, about 30% of the ~130k req/s closed-loop
/// capacity of 2 workers. Much lower rates let the server's threads go
/// idle between requests, and the wake-up cost then dominates: at 4k
/// req/s the median round trip flipped between ~160 us and ~1.06 ms from
/// run to run.
constexpr double kOpenRate = 40000;
/// Closed-loop phase: each connection keeps this many requests in flight.
constexpr int kClosedWindow = 8;
/// Share of the measured seconds spent in the open-loop phase.
constexpr double kOpenShare = 0.4;
/// Rate windows of the closed-loop phase; the reported rate is their
/// median.
constexpr double kRateWindowS = 0.5;
/// Accuracy floor of decided infer_user answers against the truth.
constexpr double kInferFloor = 0.75;
/// build_s is the median over the served launch and this many --stdio
/// launches before it, between the two phases and after the server stops.
/// The host's speed drifts over seconds: launches back to back all land
/// in the same fast or slow spell (medians of seven consecutive launches
/// ranged 0.57-0.82 s), so the samples are spread over the whole run.
constexpr int kStartsBefore = 2;
constexpr int kStartsBetween = 4;
constexpr int kStartsAfter = 4;

}  // namespace

void RunServeRead(const Args& args, Clock::time_point process_start,
                  Result* out) {
  SpanLog spans(args.trace);
  SpanLog* span_log = args.trace ? &spans : nullptr;
  const std::string corpus = args.work + "/serve.stir";
  const std::string ref_dir = args.work + "/serve_ref";

  // --- set-up: corpus, reference study, request script, server. ---
  double generate_s = 0;
  if (!GenerateCorpus(kServeScale, CorpusSeed(args.seed, 1), corpus, span_log,
                      &generate_s, out)) {
    return;
  }
  Reference ref;
  if (!LoadReference(args, corpus, ref_dir, &ref, out)) return;
  const ReadScript script =
      BuildReadScript(ref, CorpusSeed(args.seed, 2), kReadMixServe);
  const std::string metrics_path = args.work + "/serve_metrics.json";
  const std::vector<std::string> argv = {args.serve, "--corpus", corpus,
                                         "--workers", "2"};
  // Start-up samples only feed build_s, which the traced run leaves out.
  std::vector<double> ready_s;
  auto time_starts = [&](int n) {
    for (int i = 0; i < n && !args.trace; ++i) {
      ready_s.push_back(TimeServerStart(argv, out));
    }
  };
  time_starts(kStartsBefore);
  std::vector<std::string> served_argv = argv;
  if (args.trace) {
    served_argv.insert(served_argv.end(), {"--metrics-out", metrics_path});
  }
  Child server;
  uint16_t port = 0;
  ready_s.push_back(LaunchServer(served_argv, &server, &port, out));
  if (*std::min_element(ready_s.begin(), ready_s.end()) < 0) return;
  LoopbackClient client;
  if (!out->Check(client.Connect(port, kConns), "client connects")) return;
  const double setup_s = SecondsSince(process_start);

  // --- measured phases. ---
  ReadChecker checker(&script);
  int64_t next = 0;
  std::vector<double> open_latency_us;
  const double cpu_start = CpuSeconds(server.pid());
  auto on_open = [&](const Response& r) {
    checker.Observe(r, out);
    open_latency_us.push_back(r.latency_us);
  };
  const Clock::time_point open_start = Clock::now();
  const Clock::time_point open_end =
      open_start + std::chrono::microseconds(static_cast<int64_t>(
                       args.seconds * kOpenShare * 1e6));
  const double interval_us = 1e6 / kOpenRate;
  bool io_ok = true;
  while (io_ok && Clock::now() < open_end) {
    Clock::time_point due =
        open_start + std::chrono::microseconds(static_cast<int64_t>(
                         static_cast<double>(next) * interval_us));
    while (due <= Clock::now() && due < open_end) {
      client.Send(static_cast<int>(next % kConns), next,
                  script.Line(next), due, script.Key(next));
      out->Attempt();
      ++next;
      due = open_start + std::chrono::microseconds(static_cast<int64_t>(
                             static_cast<double>(next) * interval_us));
    }
    io_ok = client.Pump(std::min(due, open_end), on_open);
  }
  io_ok = io_ok && client.Drain(30.0, on_open);
  const std::vector<double> late_us = client.late_us();
  time_starts(kStartsBetween);

  std::vector<int64_t> window_counts;
  Clock::time_point closed_start;
  Clock::time_point closed_end;
  std::function<void(const Response&)> on_closed = [&](const Response& r) {
    checker.Observe(r, out);
    const Clock::time_point now = Clock::now();
    const size_t window = static_cast<size_t>(
        std::chrono::duration<double>(now - closed_start).count() /
        kRateWindowS);
    if (window >= window_counts.size()) window_counts.resize(window + 1, 0);
    ++window_counts[window];
    if (now < closed_end) {
      client.Send(r.conn, next, script.Line(next), now, script.Key(next));
      out->Attempt();
      ++next;
    }
  };
  closed_start = Clock::now();
  closed_end = closed_start + std::chrono::microseconds(static_cast<int64_t>(
                                  args.seconds * (1 - kOpenShare) * 1e6));
  for (int c = 0; io_ok && c < kConns; ++c) {
    for (int w = 0; w < kClosedWindow; ++w) {
      client.Send(c, next, script.Line(next), Clock::now(), script.Key(next));
      out->Attempt();
      ++next;
    }
  }
  while (io_ok && Clock::now() < closed_end) {
    io_ok = client.Pump(closed_end, on_closed);
  }
  io_ok = io_ok && client.Drain(30.0, on_closed);
  out->Check(io_ok, "client I/O completes");
  const double cpu_s = CpuSeconds(server.pid()) - cpu_start;
  const double rss_mb = PeakRssMb(server.pid());
  out->Check(server.Stop(60.0) == 0, "stir_serve drains and exits 0");
  time_starts(kStartsAfter);

  // Full windows only: the last one is cut by the phase end.
  std::vector<double> rates;
  for (size_t w = 0; w + 1 < window_counts.size(); ++w) {
    rates.push_back(static_cast<double>(window_counts[w]) / kRateWindowS);
  }

  // --- correctness. ---
  out->Check(checker.responses() == next,
             "every request got exactly one response");
  checker.Verify(ref, kInferFloor, out);

  if (!args.trace) {
    out->Metric("setup_s", setup_s, "s");
    out->Metric("op_p50_us", Median(open_latency_us), "us");
    out->Metric("throughput_per_s", Median(rates), "1/s");
    out->Metric("build_s", Median(ready_s), "s");
    out->Metric("peak_rss_mb", rss_mb, "MB");
    return;
  }
  out->Metric("twitter.generate_s", generate_s, "s");
  const double p50 = Median(open_latency_us);
  out->Metric("serve.rtt_p99_us", Quantile(open_latency_us, 0.99), "us");
  out->Metric("loadgen.late_p99_us", Quantile(late_us, 0.99), "us");
  out->Metric("serve.cpu_us_per_request",
              cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, next)),
              "us");
  ServerMetrics metrics;
  if (out->Check(metrics.Load(metrics_path), "server metrics snapshot reads")) {
    out->Metric("serve.server_latency_p50_us",
                metrics.HistogramQuantile("serve.latency_us", 0.5), "us");
    out->Metric("serve.batch_size_mean",
                metrics.HistogramMean("serve.batch_size"), "count");
  }
  const double service_ns =
      InProcessServiceTimes(corpus, script, span_log, out);
  out->Metric("net.overhead_us", p50 - service_ns / 1e3, "us");
  out->Check(spans.WriteChromeJson(args.work + "/trace_serve_read.json"),
             "Chrome trace written");
}

}  // namespace perfbench
