// RequestScheduler + Server front-ends: micro-batching, backpressure,
// graceful drain, and the serving determinism guarantee. The hammer
// tests are the TSan targets — many clients against one scheduler, with
// the invariant that no response is ever lost or duplicated.

#include "serve/scheduler.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "net/epoll_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "twitter/generator.h"
#include "test_corpus.h"

namespace stir::serve {
namespace {

using geo::AdminDb;
using obs::JsonParse;
using obs::JsonValue;

class ServeSchedulerTest : public ::testing::Test {
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

  /// A request stream cycling through every method plus malformed lines.
  static std::vector<std::string> MixedStream(int64_t count,
                                              int64_t id_base = 0) {
    std::vector<std::string> lines;
    lines.reserve(count);
    for (int64_t i = 0; i < count; ++i) {
      int64_t id = id_base + i;
      std::string line;
      switch (i % 6) {
        case 0:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"topk_summary\"}";
          break;
        case 1:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"lookup_user\",\"params\":{\"user\":" +
                 std::to_string(
                     index_->users()[i % index_->user_count()].user) +
                 "}}";
          break;
        case 2:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"lookup_user\",\"params\":{\"user\":999999}}";
          break;
        case 3:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"server_stats\"}";
          break;
        case 4:
          line = "{\"v\":1,\"id\":" + std::to_string(id) +
                 ",\"method\":\"lookup_district\",\"params\":"
                 "{\"state\":\"Seoul\",\"county\":\"Gangnam-gu\"}}";
          break;
        case 5:
          line = "this line is not json (" + std::to_string(id) + ")";
          break;
      }
      lines.push_back(std::move(line));
    }
    return lines;
  }

  static StudyIndex* index_;
};

StudyIndex* ServeSchedulerTest::index_ = nullptr;

int64_t ResponseId(const std::string& response) {
  JsonValue root;
  if (!JsonParse(response, &root)) return -2;
  const JsonValue* id = root.Find("id");
  if (id == nullptr) return -2;
  if (id->kind == JsonValue::Kind::kNull) return -1;
  return id->integer;
}

std::string ResponseErrorCode(const std::string& response) {
  JsonValue root;
  if (!JsonParse(response, &root)) return "<unparseable>";
  const JsonValue* error = root.Find("error");
  if (error == nullptr) return "";
  return error->Find("code")->string;
}

// ---------------------------------------------------------------------------
// Multi-client hammer: the TSan target.

TEST_F(ServeSchedulerTest, HammerNoLostOrDuplicatedResponses) {
  constexpr int kClients = 8;
  constexpr int64_t kPerClient = 200;
  ServeOptions options;
  options.workers = 4;
  options.max_batch_size = 8;
  options.queue_capacity = 10'000;  // Wide enough that nothing is rejected.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  RequestScheduler scheduler(index_, options);

  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Non-overlapping id ranges per client: a duplicated or crossed
      // response would surface as an id mismatch in *some* client.
      std::vector<std::string> lines = MixedStream(kPerClient, c * 100'000);
      std::vector<std::future<std::string>> futures;
      futures.reserve(lines.size());
      for (const std::string& line : lines) {
        futures.push_back(scheduler.SubmitLine(line));
      }
      for (int64_t i = 0; i < kPerClient; ++i) {
        std::string response = futures[i].get();
        int64_t expected = c * 100'000 + i;
        // Malformed lines (i % 6 == 5) answer with id:null.
        if (i % 6 == 5) expected = -1;
        if (ResponseId(response) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  scheduler.Drain();

  EXPECT_EQ(mismatches.load(), 0);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.received, kClients * kPerClient);
  EXPECT_EQ(stats.rejected_overload, 0);
  EXPECT_EQ(stats.rejected_shutdown, 0);
  // The admission-ordered partition is exact.
  EXPECT_EQ(stats.received, stats.admitted + stats.stats_served +
                                stats.parse_errors + stats.rejected_overload +
                                stats.rejected_shutdown);
  int64_t method_total = 0;
  for (int m = 0; m < kNumMethods; ++m) method_total += stats.method_counts[m];
  EXPECT_EQ(method_total, stats.admitted + stats.stats_served);
  // The metrics mirror agrees with every response delivered exactly once.
  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("serve.responses"), stats.received);
  EXPECT_EQ(snapshot.counter("serve.requests.received"), stats.received);
  EXPECT_EQ(snapshot.gauge("serve.queue_depth"), 0);
}

// ---------------------------------------------------------------------------
// Determinism: identical streams -> byte-identical responses, any workers.

TEST_F(ServeSchedulerTest, ByteIdenticalAcrossWorkerCounts) {
  std::vector<std::string> lines = MixedStream(300);
  common::FaultInjectorOptions fault_options;
  fault_options.error_rate = 0.2;
  fault_options.seed = 7;

  auto run = [&](int workers) {
    ServeOptions options;
    options.workers = workers;
    options.max_batch_size = 16;
    common::FaultInjector injector(fault_options);
    options.fault_injector = &injector;
    RequestScheduler scheduler(index_, options);
    std::vector<std::future<std::string>> futures;
    futures.reserve(lines.size());
    for (const std::string& line : lines) {
      futures.push_back(scheduler.SubmitLine(line));
    }
    std::string all;
    for (std::future<std::string>& future : futures) {
      all += future.get();
      all += '\n';
    }
    scheduler.Drain();
    return all;
  };

  std::string serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
  // The injected faults actually fired (and deterministically so).
  EXPECT_NE(serial.find("\"unavailable\""), std::string::npos);
}

TEST_F(ServeSchedulerTest, ServeStreamIsDeterministic) {
  std::vector<std::string> lines = MixedStream(120);
  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  auto run = [&](int workers) {
    ServeOptions options;
    options.workers = workers;
    Server server(index_, options);
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(server.ServeStream(in, out),
              static_cast<int64_t>(lines.size()));
    server.Drain();
    return out.str();
  };
  std::string serial = run(1);
  EXPECT_EQ(run(4), serial);
}

// ---------------------------------------------------------------------------
// Backpressure and shutdown.

TEST_F(ServeSchedulerTest, OverloadIsExplicitRejectionNeverHang) {
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  // A large batch target plus a long linger parks the single worker, so
  // the queue deterministically fills while we submit.
  options.max_batch_size = 1024;
  options.batch_linger_us = 30'000'000;
  RequestScheduler scheduler(index_, options);

  constexpr int64_t kTotal = 50;
  std::vector<std::future<std::string>> futures;
  for (int64_t i = 0; i < kTotal; ++i) {
    futures.push_back(scheduler.SubmitLine(
        "{\"v\":1,\"id\":" + std::to_string(i) +
        ",\"method\":\"topk_summary\"}"));
  }
  // Drain wakes the lingering worker; every future must still be
  // answered (the graceful-drain side of the contract).
  scheduler.Drain();

  int64_t overloaded = 0;
  int64_t served = 0;
  for (std::future<std::string>& future : futures) {
    std::string code = ResponseErrorCode(future.get());
    if (code == "overloaded") {
      ++overloaded;
    } else if (code.empty()) {
      ++served;
    } else {
      ADD_FAILURE() << "unexpected error code " << code;
    }
  }
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, options.queue_capacity);
  EXPECT_EQ(served, stats.admitted);
  EXPECT_EQ(overloaded, kTotal - stats.admitted);
  EXPECT_EQ(stats.rejected_overload, overloaded);
}

TEST_F(ServeSchedulerTest, DrainRejectsLateRequestsAndIsIdempotent) {
  ServeOptions options;
  options.workers = 2;
  RequestScheduler scheduler(index_, options);
  std::future<std::string> before = scheduler.SubmitLine(
      "{\"v\":1,\"id\":1,\"method\":\"topk_summary\"}");
  scheduler.Drain();
  scheduler.Drain();  // Idempotent.
  EXPECT_EQ(ResponseErrorCode(before.get()), "");
  std::future<std::string> after = scheduler.SubmitLine(
      "{\"v\":1,\"id\":2,\"method\":\"topk_summary\"}");
  EXPECT_EQ(ResponseErrorCode(after.get()), "shutting_down");
  EXPECT_TRUE(scheduler.draining());
  EXPECT_EQ(scheduler.stats().rejected_shutdown, 1);
}

TEST_F(ServeSchedulerTest, StatsRequestIsAnsweredAtAdmission) {
  ServeOptions options;
  options.workers = 1;
  RequestScheduler scheduler(index_, options);
  std::future<std::string> stats_future = scheduler.SubmitLine(
      "{\"v\":1,\"id\":0,\"method\":\"server_stats\"}");
  // Ready immediately — no batch wait.
  EXPECT_EQ(stats_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  JsonValue root;
  ASSERT_TRUE(JsonParse(stats_future.get(), &root));
  const JsonValue* counters = root.Find("result")->Find("counters");
  ASSERT_NE(counters, nullptr);
  // Admission-ordered: the stats request sees itself as received.
  EXPECT_EQ(counters->Find("received")->integer, 1);
  EXPECT_EQ(counters->Find("stats_served")->integer, 1);
  EXPECT_EQ(root.Find("result")->Find("index")->Find("users")->integer,
            static_cast<int64_t>(index_->user_count()));
  scheduler.Drain();
}

// ---------------------------------------------------------------------------
// TCP front-end: multi-connection round trip over loopback (the epoll
// event loop; the full adversarial battery lives in net_server_test).

TEST_F(ServeSchedulerTest, TcpMultiClientRoundTrip) {
  ServeOptions options;
  options.workers = 4;
  Server server(index_, options);
  net::NetOptions net_options;
  net_options.max_pipeline = 16;
  net::EpollServer tcp(&server, net_options);
  ASSERT_TRUE(tcp.Listen(0).ok()) << "cannot bind loopback";
  ASSERT_GT(tcp.port(), 0);
  ASSERT_TRUE(tcp.Start().ok());

  constexpr int kClients = 4;
  constexpr int64_t kPerClient = 50;
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        failures.fetch_add(1000);
        return;
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(tcp.port());
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0) {
        failures.fetch_add(1000);
        ::close(fd);
        return;
      }
      std::string batch;
      for (int64_t i = 0; i < kPerClient; ++i) {
        batch += "{\"v\":1,\"id\":" + std::to_string(c * 1000 + i) +
                 ",\"method\":\"topk_summary\"}\n";
      }
      size_t sent = 0;
      while (sent < batch.size()) {
        ssize_t n = ::send(fd, batch.data() + sent, batch.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0) {
          failures.fetch_add(1000);
          ::close(fd);
          return;
        }
        sent += static_cast<size_t>(n);
      }
      ::shutdown(fd, SHUT_WR);
      std::string received;
      char buf[4096];
      for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        received.append(buf, static_cast<size_t>(n));
      }
      ::close(fd);
      // Responses must come back in request order, one per request.
      int64_t next = 0;
      size_t start = 0;
      while (start < received.size()) {
        size_t newline = received.find('\n', start);
        if (newline == std::string::npos) break;
        int64_t id =
            ResponseId(received.substr(start, newline - start));
        if (id != c * 1000 + next) {
          failures.fetch_add(1);
        }
        ++next;
        start = newline + 1;
      }
      if (next != kPerClient) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  tcp.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tcp.stats().accepted, kClients);
  EXPECT_EQ(server.stats().received, kClients * kPerClient);
}

}  // namespace
}  // namespace stir::serve
