// Per-request deadlines and degraded-data serving (DESIGN.md §15):
// "deadline_ms" parse validation, the typed retryable deadline_exceeded
// envelope at batch dispatch, lazy serve.deadline.* metric registration
// (a deadline-free server's metric dump is byte-identical to a build
// without deadlines), the data_corrupt degraded mode, and the
// net-vs-scheduler reconciliation of expiry accounting.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "net/epoll_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "twitter/generator.h"
#include "test_corpus.h"

namespace stir::serve {
namespace {

using geo::AdminDb;
using obs::JsonParse;
using obs::JsonValue;

class ServeDeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const AdminDb& db = AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.05));
    twitter::GeneratedData data = generator.Generate();
    core::CorrelationStudy study(&db);
    core::StudyResult result = study.Run(test::ArenaOf(data.dataset));
    index_ = new StudyIndex(StudyIndex::Build(result, db));
    ASSERT_FALSE(index_->empty());
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }

  static std::string LookupLine(int64_t id, const std::string& extra = "") {
    return "{\"v\":1,\"id\":" + std::to_string(id) + extra +
           ",\"method\":\"lookup_user\",\"params\":{\"user\":" +
           std::to_string(index_->users()[0].user) + "}}";
  }

  static StudyIndex* index_;
};

StudyIndex* ServeDeadlineTest::index_ = nullptr;

std::string ResponseErrorCode(const std::string& response) {
  JsonValue root;
  if (!JsonParse(response, &root)) return "<unparseable>";
  const JsonValue* error = root.Find("error");
  if (error == nullptr) return "";
  return error->Find("code")->string;
}

bool ResponseOk(const std::string& response) {
  JsonValue root;
  if (!JsonParse(response, &root)) return false;
  const JsonValue* ok = root.Find("ok");
  return ok != nullptr && ok->kind == JsonValue::Kind::kBool && ok->boolean;
}

TEST_F(ServeDeadlineTest, DeadlineMsParseValidation) {
  ServeOptions options;
  options.workers = 1;
  RequestScheduler scheduler(index_, options);
  for (const char* bad :
       {",\"deadline_ms\":0", ",\"deadline_ms\":-5", ",\"deadline_ms\":2.5",
        ",\"deadline_ms\":\"soon\""}) {
    SCOPED_TRACE(bad);
    std::string response = scheduler.SubmitLine(LookupLine(1, bad)).get();
    EXPECT_EQ(ResponseErrorCode(response), "bad_request");
    EXPECT_NE(response.find("'deadline_ms' must be a positive integer"),
              std::string::npos);
  }
  // A valid budget is accepted and the request answers normally.
  std::string response =
      scheduler.SubmitLine(LookupLine(2, ",\"deadline_ms\":60000")).get();
  EXPECT_TRUE(ResponseOk(response)) << response;
  scheduler.Drain();
}

TEST_F(ServeDeadlineTest, ExpiredDeadlineYieldsTypedEnvelope) {
  ServeOptions options;
  options.workers = 1;
  // The single worker lingers 150 ms for a fuller batch, so a 1 ms
  // budget has deterministically expired by dispatch.
  options.batch_linger_us = 150'000;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  RequestScheduler scheduler(index_, options);

  std::promise<void> done;
  std::string response;
  ResponseMeta meta;
  scheduler.SubmitLineWith(LookupLine(7, ",\"deadline_ms\":1"),
                           [&](std::string r, const ResponseMeta& m) {
                             response = std::move(r);
                             meta = m;
                             done.set_value();
                           });
  done.get_future().wait();
  scheduler.Drain();

  EXPECT_EQ(ResponseErrorCode(response), "deadline_exceeded");
  EXPECT_NE(response.find("deadline expired before execution"),
            std::string::npos);
  EXPECT_TRUE(meta.deadline_expired);
  EXPECT_FALSE(meta.shed);
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1);
  // The expired request still counts as admitted — expiry happens at
  // dispatch, after admission — so the admission partition is untouched.
  EXPECT_EQ(scheduler.stats().admitted, 1);
  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("serve.deadline.requests"), 1);
  EXPECT_EQ(snapshot.counter("serve.deadline.exceeded"), 1);
}

TEST_F(ServeDeadlineTest, DefaultDeadlineApplies) {
  ServeOptions options;
  options.workers = 1;
  options.batch_linger_us = 150'000;
  options.default_deadline_ms = 1;  // Server-side budget, eager metrics.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  RequestScheduler scheduler(index_, options);
  // The request carries no deadline of its own; the server default makes
  // it expire all the same.
  std::string response = scheduler.SubmitLine(LookupLine(3)).get();
  scheduler.Drain();
  EXPECT_EQ(ResponseErrorCode(response), "deadline_exceeded");
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1);
  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("serve.deadline.requests"), 1);
  EXPECT_EQ(snapshot.counter("serve.deadline.exceeded"), 1);
}

TEST_F(ServeDeadlineTest, GenerousDeadlineAnswersNormally) {
  ServeOptions options;
  options.workers = 2;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  RequestScheduler scheduler(index_, options);
  std::string response =
      scheduler.SubmitLine(LookupLine(4, ",\"deadline_ms\":60000")).get();
  scheduler.Drain();
  EXPECT_TRUE(ResponseOk(response)) << response;
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 0);
  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("serve.deadline.requests"), 1);
  EXPECT_EQ(snapshot.counter("serve.deadline.exceeded"), 0);
}

TEST_F(ServeDeadlineTest, NoDeadlineLeavesMetricsUnregistered) {
  // Lazy registration: without any deadline in play the serve.deadline.*
  // counters must not even exist, keeping the metric dump byte-identical
  // to a deadline-free build.
  ServeOptions options;
  options.workers = 2;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  RequestScheduler scheduler(index_, options);
  EXPECT_TRUE(ResponseOk(scheduler.SubmitLine(LookupLine(5)).get()));
  scheduler.Drain();
  EXPECT_EQ(metrics.Snapshot().ToJson().find("serve.deadline"),
            std::string::npos);
}

TEST_F(ServeDeadlineTest, DegradedDataAnswersDataCorrupt) {
  ServeOptions options;
  options.workers = 2;
  options.degraded_data = true;  // Backing corpus failed verification.
  RequestScheduler scheduler(index_, options);

  // Data-plane methods answer the typed retryable envelope...
  for (const std::string& line :
       {LookupLine(10),
        std::string("{\"v\":1,\"id\":11,\"method\":\"topk_summary\"}"),
        std::string("{\"v\":1,\"id\":12,\"method\":\"lookup_district\","
                    "\"params\":{\"state\":\"Seoul\","
                    "\"county\":\"Gangnam-gu\"}}")}) {
    SCOPED_TRACE(line);
    std::string response = scheduler.SubmitLine(line).get();
    EXPECT_EQ(ResponseErrorCode(response), "data_corrupt");
    EXPECT_NE(
        response.find("backing corpus failed verification; serving degraded"),
        std::string::npos);
  }
  // ...while the control plane keeps working for diagnosis.
  std::string info = scheduler
                         .SubmitLine("{\"v\":1,\"id\":13,"
                                     "\"method\":\"index_info\"}")
                         .get();
  EXPECT_TRUE(ResponseOk(info)) << info;
  std::string stats_response =
      scheduler
          .SubmitLine("{\"v\":1,\"id\":14,\"method\":\"server_stats\"}")
          .get();
  EXPECT_TRUE(ResponseOk(stats_response)) << stats_response;
  // server_stats surfaces the degraded rejections (key present only in
  // degraded mode).
  EXPECT_NE(stats_response.find("\"rejected_corrupt\":3"), std::string::npos);
  scheduler.Drain();

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.rejected_corrupt, 3);
  EXPECT_EQ(stats.received, stats.admitted + stats.stats_served +
                                stats.parse_errors + stats.rejected_overload +
                                stats.rejected_shutdown +
                                stats.rejected_corrupt);
}

TEST_F(ServeDeadlineTest, NetStatsReconcileDeadlineExpiry) {
  // The epoll front end's per-connection accounting must agree with the
  // scheduler: every deadline_exceeded envelope it forwarded is counted
  // once in NetStats.deadline_expired.
  std::string payload;
  for (int i = 0; i < 3; ++i) {
    payload += LookupLine(20 + i, ",\"deadline_ms\":1");
    payload += '\n';
  }

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);

  ServeOptions options;
  options.workers = 1;
  options.batch_linger_us = 150'000;
  Server server(index_, options);
  net::EpollServer net(&server, net::NetOptions{});
  ASSERT_TRUE(net.AdoptStdio(in_pipe[0], out_pipe[1]).ok());

  std::thread feeder([&] {
    size_t sent = 0;
    while (sent < payload.size()) {
      ssize_t n = ::write(in_pipe[1], payload.data() + sent,
                          payload.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);  // EOF ends the stdio session.
  });
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
  });

  net.Run();
  ::close(out_pipe[1]);
  feeder.join();
  reader.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);

  // All three responses came back (nothing dropped), and the front end's
  // expiry count matches the scheduler's exactly.
  int64_t responses = 0;
  for (char c : received) responses += c == '\n';
  EXPECT_EQ(responses, 3);
  const int64_t expired = net.stats().deadline_expired;
  EXPECT_GE(expired, 1);
  EXPECT_EQ(expired, server.scheduler().stats().deadline_exceeded);
}

}  // namespace
}  // namespace stir::serve
