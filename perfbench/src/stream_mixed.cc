// stream_mixed: stir_serve --stream at a fixed epoch size on a small base
// corpus. One connection appends batches of new users and their tweets,
// re-keyed from a second seeded corpus so text, GPS and profile noise
// look real; a second connection reads base users on an open-loop
// schedule at the same time. Per-tweet folds, epoch seals (each one
// rebuilds the indexes) and the append fence carry the load.

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "client.h"
#include "io/corpus.h"
#include "io/corpus_reader.h"
#include "obs/json.h"
#include "twitter/dataset.h"
#include "util.h"
#include "workload_common.h"
#include "workload_reads.h"

namespace perfbench {
namespace {

/// Korean-preset scales: the base corpus the server starts from (52.2k
/// users, about 1k final) and the corpus appended records are cut from.
constexpr double kBaseScale = 1.0;
constexpr double kAppendScale = 1.0;
/// Auto-seal threshold of the server, in tweets.
constexpr int64_t kEpochSize = 4096;
/// Appended batches stay under this many bytes per request line, below
/// stir_serve's default --max-request-bytes of 65536 (a 50-user x
/// 20-tweet batch, about 125 KB, is refused as oversized).
constexpr size_t kBatchBytes = 48 * 1024;
/// Open-loop read rate on the second connection.
constexpr double kReadRate = 1000;
/// Appends are a fixed amount of work: this many rounds of the append
/// corpus (~400k tweets, ~18 s on the reference machine). Every seal
/// rebuilds the whole index, so a time-bounded phase would make index
/// size, seal cost and peak memory depend on how fast the run went. A
/// run that has not finished them after kAppendCapFactor x --seconds
/// stops appending and fails its check.
constexpr size_t kAppendRounds = 10;
constexpr double kAppendCapFactor = 4;
/// Re-keying: round r of the append corpus shifts user ids by
/// (r + 1) * kUserShift and tweet ids by (r + 1) * kTweetShift, above
/// every id the generator hands out, so rounds never collide.
constexpr int64_t kUserShift = 1'000'000'000'000;
constexpr int64_t kTweetShift = 10'000'000'000'000;
/// Request ids of appends and control requests; reads count up from 0.
constexpr int64_t kAppendIdBase = int64_t{1} << 40;
constexpr int64_t kControlIdBase = int64_t{1} << 50;

/// Records of one append batch, as indices into the append corpus: each
/// user followed by its tweets, in corpus order.
struct BatchPlan {
  std::vector<size_t> users;
  std::vector<size_t> tweets;
};

stir::twitter::User Rekeyed(const stir::twitter::User& user, int round) {
  stir::twitter::User out = user;
  out.id += (round + 1) * kUserShift;
  return out;
}

stir::twitter::Tweet Rekeyed(const stir::twitter::Tweet& tweet, int round) {
  stir::twitter::Tweet out = tweet;
  out.id += (round + 1) * kTweetShift;
  out.user += (round + 1) * kUserShift;
  return out;
}

std::string UserJson(const stir::twitter::User& user) {
  return "{\"id\":" + std::to_string(user.id) + ",\"handle\":\"" +
         stir::obs::JsonEscape(user.handle) + "\",\"location\":\"" +
         stir::obs::JsonEscape(user.profile_location) +
         "\",\"total_tweets\":" + std::to_string(user.total_tweets) + "}";
}

std::string TweetJson(const stir::twitter::Tweet& tweet) {
  std::string json = "{\"id\":" + std::to_string(tweet.id) +
                     ",\"user\":" + std::to_string(tweet.user) +
                     ",\"time\":" + std::to_string(tweet.time);
  if (tweet.gps) {
    char fix[80];
    // %.17g round-trips the doubles, so the server folds exactly the
    // coordinates the batch check later writes to its corpus.
    std::snprintf(fix, sizeof(fix), ",\"lat\":%.17g,\"lng\":%.17g",
                  tweet.gps->lat, tweet.gps->lng);
    json += fix;
  }
  return json + ",\"text\":\"" + stir::obs::JsonEscape(tweet.text) + "\"}";
}

/// Cuts the append corpus into batches whose request lines stay under
/// kBatchBytes (sized at round 0; later rounds add at most a digit per
/// id).
std::vector<BatchPlan> PlanBatches(const stir::twitter::Dataset& source) {
  std::vector<BatchPlan> plans(1);
  size_t bytes = 0;
  auto add = [&](size_t json_bytes) {
    if (bytes + json_bytes + 128 > kBatchBytes) {
      plans.emplace_back();
      bytes = 0;
    }
    bytes += json_bytes + 1;
  };
  for (size_t u = 0; u < source.users().size(); ++u) {
    const stir::twitter::User& user = source.users()[u];
    add(UserJson(Rekeyed(user, 0)).size());
    plans.back().users.push_back(u);
    for (size_t t : source.TweetIndicesOf(user.id)) {
      add(TweetJson(Rekeyed(source.tweets()[t], 0)).size());
      plans.back().tweets.push_back(t);
    }
  }
  return plans;
}

std::string RenderBatch(const stir::twitter::Dataset& source,
                        const BatchPlan& plan, int round, int64_t id) {
  std::string line = "{\"v\":1,\"id\":" + std::to_string(id) +
                     ",\"method\":\"append_tweets\",\"params\":{\"users\":[";
  for (size_t i = 0; i < plan.users.size(); ++i) {
    if (i > 0) line += ',';
    line += UserJson(Rekeyed(source.users()[plan.users[i]], round));
  }
  line += "],\"tweets\":[";
  for (size_t i = 0; i < plan.tweets.size(); ++i) {
    if (i > 0) line += ',';
    line += TweetJson(Rekeyed(source.tweets()[plan.tweets[i]], round));
  }
  return line + "]}}";
}

bool LoadDataset(const std::string& corpus, stir::twitter::Dataset* out) {
  auto view = stir::io::CorpusView::Open(corpus);
  if (!view.ok()) return false;
  auto dataset = stir::io::MaterializeDataset(*view);
  if (!dataset.ok()) return false;
  *out = std::move(*dataset);
  return true;
}

int64_t FieldOf(std::string_view body, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = body.find(needle);
  if (at == std::string_view::npos) return -1;
  int64_t value = -1;
  std::from_chars(body.data() + at + needle.size(),
                  body.data() + body.size(), value);
  return value;
}

/// Sends one control request on `conn` and waits for its answer body.
std::string Ask(LoopbackClient* client, int conn, int64_t id,
                const std::string& method) {
  client->Send(conn, id,
               "{\"v\":1,\"id\":" + std::to_string(id) + ",\"method\":\"" +
                   method + "\"}",
               Clock::now(), -1);
  std::string body;
  client->Drain(30.0, [&](const Response& r) {
    if (r.id_ok && r.ok) body.assign(r.body);
  });
  return body;
}

}  // namespace

void RunStreamMixed(const Args& args, Clock::time_point process_start,
                    Result* out) {
  SpanLog spans(args.trace);
  SpanLog* span_log = args.trace ? &spans : nullptr;
  const std::string base = args.work + "/stream_base.stir";
  const std::string extra = args.work + "/stream_append.stir";

  // --- set-up: both corpora, base reference, batch plan, server. ---
  double generate_s = 0, generate2_s = 0;
  if (!GenerateCorpus(kBaseScale, CorpusSeed(args.seed, 3), base, span_log,
                      &generate_s, out) ||
      !GenerateCorpus(kAppendScale, CorpusSeed(args.seed, 4), extra, span_log,
                      &generate2_s, out)) {
    return;
  }
  Reference ref;
  if (!LoadReference(args, base, args.work + "/stream_ref", &ref, out)) return;
  const ReadScript script =
      BuildReadScript(ref, CorpusSeed(args.seed, 5), kReadMixStream);
  stir::twitter::Dataset source;
  if (!out->Check(LoadDataset(extra, &source), "append corpus loads")) return;
  const std::vector<BatchPlan> plans = PlanBatches(source);
  const std::string metrics_path = args.work + "/stream_metrics.json";
  std::vector<std::string> argv = {
      args.serve, "--corpus",  base,        "--stream", "--epoch-size",
      std::to_string(kEpochSize), "--workers", "2"};
  if (args.trace) argv.insert(argv.end(), {"--metrics-out", metrics_path});
  Child server;
  uint16_t port = 0;
  if (LaunchServer(argv, &server, &port, out) < 0) return;
  LoopbackClient client;
  if (!out->Check(client.Connect(port, 2), "client connects")) return;
  const int64_t generation_before =
      FieldOf(Ask(&client, 1, kControlIdBase, "index_info"), "generation");
  const double setup_s = SecondsSince(process_start);

  // --- measured phase: appends back to back on connection 0, open-loop
  // reads on connection 1. Batch b is plan b % |plans| re-keyed for
  // round b / |plans|. ---
  auto batch_line = [&](size_t b) {
    return RenderBatch(source, plans[b % plans.size()],
                       static_cast<int>(b / plans.size()),
                       kAppendIdBase + static_cast<int64_t>(b));
  };
  ReadChecker checker(&script);
  std::vector<double> seal_append_us, plain_append_us;
  std::vector<std::pair<int64_t, double>> read_latency_us;  // (id, us)
  std::vector<int64_t> sealed_by_batch;
  int64_t appended_tweets = 0;
  size_t sent_batches = 0;
  const size_t total_batches = plans.size() * kAppendRounds;
  std::string next_batch = batch_line(0);
  const double cpu_start = CpuSeconds(server.pid());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(args.seconds * 1e6));
  const Clock::time_point append_cap =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(args.seconds * kAppendCapFactor * 1e6));
  bool appending = true;
  Clock::time_point append_end = start;
  auto send_append = [&] {
    client.Send(0, kAppendIdBase + static_cast<int64_t>(sent_batches),
                next_batch, Clock::now(), -1);
    out->Attempt();
    ++sent_batches;
    next_batch = batch_line(sent_batches);  // rendered while the server works
  };
  auto handler = [&](const Response& r) {
    if (r.conn == 1) {
      checker.Observe(r, out);
      read_latency_us.push_back({r.id, r.latency_us});
      return;
    }
    const int64_t sealed = r.ok && r.id_ok ? FieldOf(r.body, "epochs_sealed")
                                           : -1;
    if (sealed < 0) {
      out->Fail();
      std::fprintf(stderr, "perfbench: append refused: %.*s\n",
                   static_cast<int>(std::min<size_t>(r.line.size(), 200)),
                   r.line.data());
    } else {
      appended_tweets += FieldOf(r.body, "appended_tweets");
      (sealed > 0 ? seal_append_us : plain_append_us).push_back(r.latency_us);
    }
    sealed_by_batch.push_back(std::max<int64_t>(0, sealed));
    if (sent_batches < total_batches && Clock::now() < append_cap) {
      send_append();
    } else {
      appending = false;
      append_end = Clock::now();
    }
  };
  send_append();
  // Reads run on their schedule until both the appends and --seconds are
  // done; op_p50_us counts only reads due while appends were running.
  const double interval_us = 1e6 / kReadRate;
  auto due_of = [&](int64_t id) {
    return start + std::chrono::microseconds(static_cast<int64_t>(
                       static_cast<double>(id) * interval_us));
  };
  int64_t read_id = 0;
  bool io_ok = true;
  while (io_ok && (appending || Clock::now() < end)) {
    while (due_of(read_id) <= Clock::now()) {
      client.Send(1, read_id, script.Line(read_id), due_of(read_id),
                  script.Key(read_id));
      out->Attempt();
      ++read_id;
    }
    io_ok = client.Pump(due_of(read_id), handler);
  }
  io_ok = io_ok && client.Drain(60.0, handler);
  const double append_s =
      std::chrono::duration<double>(append_end - start).count();
  std::vector<double> reads_during_appends_us;
  for (const auto& [id, latency_us] : read_latency_us) {
    if (due_of(id) < append_end) reads_during_appends_us.push_back(latency_us);
  }
  out->Check(sent_batches == total_batches,
             "every planned batch was appended within the time cap");
  out->Check(io_ok && sealed_by_batch.size() == sent_batches,
             "every append got exactly one response");
  const double cpu_s = CpuSeconds(server.pid()) - cpu_start;
  const double rss_mb = PeakRssMb(server.pid());
  const int64_t generation_after =
      FieldOf(Ask(&client, 1, kControlIdBase + 1, "index_info"), "generation");
  const std::string final_topk =
      Ask(&client, 1, kControlIdBase + 2, "topk_summary");
  out->Check(server.Stop(60.0) == 0, "stir_serve drains and exits 0");

  // --- correctness. ---
  out->Check(checker.responses() == read_id,
             "every read got exactly one response");
  checker.Verify(ref, 0.75, out);
  int64_t sealed_total = 0;
  size_t covered_batches = 0;  // batches up to the last seal
  for (size_t b = 0; b < sealed_by_batch.size(); ++b) {
    sealed_total += sealed_by_batch[b];
    if (sealed_by_batch[b] > 0) covered_batches = b + 1;
  }
  out->Check(generation_before >= 0 &&
                 sealed_total == generation_after - generation_before,
             "epochs_sealed deltas sum to the generation advance");

  // The final generation covers the base corpus, the users of every batch
  // up to the one that sealed last (a batch ingests its users before its
  // tweets), and exactly sealed_total * kEpochSize appended tweets.
  stir::twitter::Dataset covered;
  if (out->Check(LoadDataset(base, &covered), "base corpus loads")) {
    int64_t tweets_left = sealed_total * kEpochSize;
    for (size_t b = 0; b < covered_batches; ++b) {
      const int round = static_cast<int>(b / plans.size());
      for (size_t u : plans[b % plans.size()].users) {
        covered.AddUser(Rekeyed(source.users()[u], round));
      }
    }
    for (size_t b = 0; b < covered_batches; ++b) {
      const int round = static_cast<int>(b / plans.size());
      for (size_t t : plans[b % plans.size()].tweets) {
        if (tweets_left == 0) break;
        covered.AddTweet(Rekeyed(source.tweets()[t], round));
        --tweets_left;
      }
    }
    out->Check(tweets_left == 0, "sealed tweets lie within the sent batches");
    const std::string covered_path = args.work + "/stream_covered.stir";
    const std::string covered_dir = args.work + "/stream_covered";
    mkdir(covered_dir.c_str(), 0755);
    stir::io::CorpusWriterOptions options;
    options.fsync = false;
    std::string report_text;
    stir::obs::JsonValue served, report;
    const bool compared =
        stir::io::CorpusWriter::WriteDataset(covered, covered_path, options)
            .ok() &&
        RunToCompletion({args.cli, "study", "--corpus", covered_path,
                         "--report-dir", covered_dir},
                        "", 120.0) &&
        ReadFile(covered_dir + "/report.json", &report_text) &&
        stir::obs::JsonParse(report_text, &report) && !final_topk.empty() &&
        stir::obs::JsonParse("{\"id\":0" + final_topk, &served) &&
        served.Find("result") != nullptr;
    out->Check(compared && TopkMatchesReport(*served.Find("result"), report),
               "final generation's topk_summary equals a batch study of the "
               "records it covers");
  }

  if (!args.trace) {
    out->Metric("setup_s", setup_s, "s");
    out->Metric("op_p50_us", Median(reads_during_appends_us), "us");
    out->Metric("throughput_per_s",
                static_cast<double>(appended_tweets) / append_s, "1/s");
    // The index rebuild a writer waits for: appends whose batch sealed an
    // epoch, about a hundred a run spread over the whole append phase.
    out->Metric("build_s", Median(seal_append_us) / 1e6, "s");
    out->Metric("peak_rss_mb", rss_mb, "MB");
    return;
  }
  out->Metric("twitter.generate_s", generate_s + generate2_s, "s");
  out->Metric("stream.append_seal_p50_ms", Median(seal_append_us) / 1e3, "ms");
  out->Metric("stream.append_noseal_p50_us", Median(plain_append_us), "us");
  out->Metric("stream.seals", static_cast<double>(sealed_total), "count");
  out->Metric("stream.cpu_us_per_tweet",
              cpu_s * 1e6 /
                  static_cast<double>(std::max<int64_t>(1, appended_tweets)),
              "us");
  ServerMetrics metrics;
  if (out->Check(metrics.Load(metrics_path), "server metrics snapshot reads")) {
    const int64_t seals = metrics.Counter("stream.epochs_sealed");
    if (seals > 0) {
      out->Metric("stream.seal_mean_us",
                  static_cast<double>(metrics.Counter("stream.seal_us")) /
                      static_cast<double>(seals),
                  "us");
    }
    out->Metric("stream.swap_p50_us",
                metrics.HistogramQuantile("stream.swap_us", 0.5), "us");
  }
  out->Check(spans.WriteChromeJson(args.work + "/trace_stream_mixed.json"),
             "Chrome trace written");
}

}  // namespace perfbench
