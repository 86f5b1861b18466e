// Differential batch-equivalence harness for the incremental stream
// engine (DESIGN.md §12). The headline invariant under test: for ANY
// epoch partition of the same tweet log and ANY thread count, the final
// streamed index answers every index-served protocol method
// byte-identically to the index the one-shot batch study builds. Also
// covers fault-injected equivalence, RCU snapshot consistency for
// generation-pinned readers during swaps, and a concurrent
// appender/querier hammer (a TSan target — build with
// -DSTIR_SANITIZE=thread).

#include "stream/engine.h"

#include <atomic>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "twitter/generator.h"
#include "test_corpus.h"

namespace stir::stream {
namespace {

using geo::AdminDb;
using obs::JsonParse;
using obs::JsonValue;

class StreamEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = &AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        db_, twitter::DatasetGenerator::KoreanConfig(0.02));
    data_ = new twitter::GeneratedData(generator.Generate());
    ASSERT_GT(data_->dataset.tweets().size(), 100u);

    core::CorrelationStudy study(db_);
    core::StudyResult result = study.Run(test::ArenaOf(data_->dataset));
    batch_index_ =
        new serve::StudyIndex(serve::StudyIndex::Build(result, *db_));
    ASSERT_FALSE(batch_index_->empty());

    requests_ = new std::vector<serve::Request>(
        ProtocolRequests(*batch_index_));
    expected_ = new std::vector<std::string>();
    expected_->reserve(requests_->size());
    for (const serve::Request& request : *requests_) {
      expected_->push_back(serve::ExecuteOnIndex(*batch_index_, request));
    }
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete requests_;
    delete batch_index_;
    delete data_;
    expected_ = nullptr;
    requests_ = nullptr;
    batch_index_ = nullptr;
    data_ = nullptr;
  }

  /// Every index-served request the protocol can express against this
  /// index: each user (+ one absent), each district (+ paging variants
  /// and one absent), and the topk summary.
  static std::vector<serve::Request> ProtocolRequests(
      const serve::StudyIndex& index) {
    std::vector<serve::Request> requests;
    int64_t id = 0;
    for (const serve::UserEntry& entry : index.users()) {
      serve::Request request;
      request.id = ++id;
      request.method = serve::Method::kLookupUser;
      request.user = entry.user;
      requests.push_back(request);
    }
    {
      serve::Request missing;
      missing.id = ++id;
      missing.method = serve::Method::kLookupUser;
      missing.user = 1'000'000'000;
      requests.push_back(missing);
    }
    for (const serve::DistrictEntry& entry : index.districts()) {
      const std::string& name = index.name(entry.name);
      size_t space = name.find(' ');
      if (space == std::string::npos) {
        ADD_FAILURE() << "district name without a state: " << name;
        continue;
      }
      serve::Request request;
      request.id = ++id;
      request.method = serve::Method::kLookupDistrict;
      request.state = name.substr(0, space);
      request.county = name.substr(space + 1);
      requests.push_back(request);
      request.id = ++id;
      request.limit = 2;
      request.offset = 1;
      requests.push_back(request);
    }
    {
      serve::Request missing;
      missing.id = ++id;
      missing.method = serve::Method::kLookupDistrict;
      missing.state = "Atlantis";
      missing.county = "Deep-gu";
      requests.push_back(missing);
    }
    serve::Request topk;
    topk.id = ++id;
    topk.method = serve::Method::kTopkSummary;
    requests.push_back(topk);
    return requests;
  }

  /// Ingests the full corpus: users in dataset order, tweets in dataset
  /// order with their dataset indices as fault keys (the batch study's
  /// fault schedule). `seal_each` optionally seals after single tweets.
  static void IngestAll(StreamEngine* engine) {
    for (const twitter::User& user : data_->dataset.users()) {
      ASSERT_TRUE(engine->AddUser(user).ok());
    }
    const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
    for (size_t i = 0; i < tweets.size(); ++i) {
      ASSERT_TRUE(
          engine->AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
    }
  }

  /// The whole point: the streamed index answers every request with the
  /// exact bytes the batch index produced.
  static void ExpectBatchEquivalent(
      const std::shared_ptr<const serve::StudyIndex>& index,
      const std::string& label) {
    ASSERT_NE(index, nullptr);
    for (size_t i = 0; i < requests_->size(); ++i) {
      EXPECT_EQ(serve::ExecuteOnIndex(*index, (*requests_)[i]),
                (*expected_)[i])
          << label << ", request " << i;
      if (HasFailure()) return;
    }
  }

  static const AdminDb* db_;
  static twitter::GeneratedData* data_;
  static serve::StudyIndex* batch_index_;
  static std::vector<serve::Request>* requests_;
  static std::vector<std::string>* expected_;
};

const AdminDb* StreamEquivalenceTest::db_ = nullptr;
twitter::GeneratedData* StreamEquivalenceTest::data_ = nullptr;
serve::StudyIndex* StreamEquivalenceTest::batch_index_ = nullptr;
std::vector<serve::Request>* StreamEquivalenceTest::requests_ = nullptr;
std::vector<std::string>* StreamEquivalenceTest::expected_ = nullptr;

// ---------------------------------------------------------------------------
// The partition × thread-count grid

TEST_F(StreamEquivalenceTest, EpochSizeGridMatchesBatch) {
  // Size 1 (a seal per tweet), a prime, a power of two, and all-in-one
  // (0 auto-seals never; the final manual seal is the only epoch).
  const int64_t kEpochSizes[] = {1, 7, 16, 0};
  const int kThreads[] = {1, 2, 8};
  for (int64_t epoch_size : kEpochSizes) {
    for (int threads : kThreads) {
      StudyConfig config;
      config.threads = threads;
      StreamOptions options;
      options.epoch_size = epoch_size;
      StreamEngine engine(db_, config, options);
      ASSERT_TRUE(engine.Open().ok());
      IngestAll(&engine);
      engine.SealEpoch();
      std::string label = "epoch_size=" + std::to_string(epoch_size) +
                          " threads=" + std::to_string(threads);
      if (epoch_size == 1) {
        // Every tweet sealed an epoch; the trailing seal was a no-op.
        EXPECT_EQ(engine.epochs_sealed(),
                  static_cast<int64_t>(data_->dataset.tweets().size()))
            << label;
      }
      EXPECT_EQ(engine.generation(), engine.epochs_sealed()) << label;
      EXPECT_EQ(engine.pending_tweets(), 0) << label;
      ExpectBatchEquivalent(engine.CurrentIndex(), label);
      if (HasFailure()) return;
    }
  }
}

TEST_F(StreamEquivalenceTest, SeededRandomPartitionsMatchBatch) {
  // Eight seeded random partitions: seal after each tweet with
  // probability ~1/8, thread count cycling through {1, 2, 8}.
  const int kThreads[] = {1, 2, 8};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    StudyConfig config;
    config.threads = kThreads[seed % 3];
    StreamEngine engine(db_, config, StreamOptions{});
    ASSERT_TRUE(engine.Open().ok());
    for (const twitter::User& user : data_->dataset.users()) {
      ASSERT_TRUE(engine.AddUser(user).ok());
    }
    const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
    for (size_t i = 0; i < tweets.size(); ++i) {
      ASSERT_TRUE(
          engine.AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
      if (rng() % 8 == 0) engine.SealEpoch();
    }
    engine.SealEpoch();
    ExpectBatchEquivalent(engine.CurrentIndex(),
                          "seed=" + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST_F(StreamEquivalenceTest, FaultScheduleMatchesBatch) {
  // With fault injection armed, the dataset-index fault keys must charge
  // the streamed run the exact per-tweet fault/retry schedule of the
  // batch study — funnel counters included.
  StudyConfig faulty;
  faulty.fault.error_rate = 0.3;
  faulty.fault.seed = 99;
  faulty.retry.max_attempts = 2;

  core::CorrelationStudy study(db_, faulty);
  core::StudyResult batch = study.Run(test::ArenaOf(data_->dataset));
  serve::StudyIndex batch_faulty = serve::StudyIndex::Build(batch, *db_);

  for (int64_t epoch_size : {1, 13}) {
    StreamOptions options;
    options.epoch_size = epoch_size;
    StreamEngine engine(db_, faulty, options);
    ASSERT_TRUE(engine.Open().ok());
    IngestAll(&engine);
    engine.SealEpoch();
    std::shared_ptr<const serve::StudyIndex> index = engine.CurrentIndex();
    ASSERT_NE(index, nullptr);
    std::string label = "faulty epoch_size=" + std::to_string(epoch_size);
    for (const serve::Request& request : *requests_) {
      EXPECT_EQ(serve::ExecuteOnIndex(*index, request),
                serve::ExecuteOnIndex(batch_faulty, request))
          << label;
      if (HasFailure()) return;
    }
    EXPECT_EQ(index->funnel().geocode_faulted,
              batch_faulty.funnel().geocode_faulted)
        << label;
    EXPECT_EQ(index->funnel().geocode_retried,
              batch_faulty.funnel().geocode_retried)
        << label;
  }
}

// ---------------------------------------------------------------------------
// RCU snapshot consistency

TEST_F(StreamEquivalenceTest, PinnedReadersSeeConsistentSnapshots) {
  // A reader that pinned generation G keeps answering from G's bytes
  // while appends seal new generations underneath it — the RCU contract.
  StreamOptions stream_options;
  stream_options.epoch_size = 1;
  StreamEngine engine(db_, StudyConfig{}, stream_options);
  ASSERT_TRUE(engine.Open().ok());
  IngestAll(&engine);
  engine.SealEpoch();

  serve::ServeOptions serve_options;
  serve_options.stream = &engine;
  serve::Server server(engine.CurrentIndex(), engine.generation(),
                       serve_options);
  engine.AttachScheduler(&server.scheduler());

  int64_t pinned_generation = -1;
  std::shared_ptr<const serve::StudyIndex> pinned =
      server.scheduler().PinIndex(&pinned_generation);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned_generation, engine.generation());
  const size_t users_before = pinned->user_count();

  // Appends (each sealing an epoch at size 1) swap fresh generations in.
  for (int i = 0; i < 3; ++i) {
    std::string line =
        "{\"v\":1,\"id\":" + std::to_string(100 + i) +
        ",\"method\":\"append_tweets\",\"params\":{\"users\":[{\"id\":" +
        std::to_string(7'000'000 + i) +
        ",\"location\":\"Seoul Mapo-gu\",\"total_tweets\":1}],"
        "\"tweets\":[{\"id\":" +
        std::to_string(8'000'000 + i) + ",\"user\":" +
        std::to_string(7'000'000 + i) +
        ",\"time\":1,\"lat\":37.55,\"lng\":126.94,\"text\":\"x\"}]}}";
    std::string response = server.SubmitLine(line).get();
    JsonValue root;
    ASSERT_TRUE(JsonParse(response, &root)) << response;
    const JsonValue* ok = root.Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->boolean) << response;
  }

  // The pinned snapshot is untouched: same bytes as the batch index it
  // was proven equal to, same user count.
  EXPECT_EQ(pinned->user_count(), users_before);
  ExpectBatchEquivalent(pinned, "pinned snapshot");

  // A fresh pin sees the post-append world: newer generation, more users.
  int64_t fresh_generation = -1;
  std::shared_ptr<const serve::StudyIndex> fresh =
      server.scheduler().PinIndex(&fresh_generation);
  EXPECT_GT(fresh_generation, pinned_generation);
  EXPECT_EQ(fresh->user_count(), users_before + 3);
  EXPECT_NE(fresh->FindUser(7'000'002), nullptr);
  server.Drain();
}

// ---------------------------------------------------------------------------
// Concurrent appenders + queriers (TSan target)

TEST_F(StreamEquivalenceTest, AppendQueryHammer) {
  StreamOptions stream_options;
  stream_options.epoch_size = 16;
  StreamEngine engine(db_, StudyConfig{}, stream_options);
  ASSERT_TRUE(engine.Open().ok());
  IngestAll(&engine);
  engine.SealEpoch();

  serve::ServeOptions serve_options;
  serve_options.workers = 4;
  serve_options.queue_capacity = 4096;
  serve_options.stream = &engine;
  serve::Server server(engine.CurrentIndex(), engine.generation(),
                       serve_options);
  engine.AttachScheduler(&server.scheduler());

  constexpr int kQueriers = 4;
  constexpr int kAppenders = 2;
  constexpr int kPerThread = 60;
  const twitter::UserId probe = batch_index_->users()[0].user;
  std::atomic<int64_t> ok_responses{0};

  std::vector<std::thread> threads;
  threads.reserve(kQueriers + kAppenders);
  for (int t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t id = t * kPerThread + i;
        std::string line =
            i % 2 == 0
                ? "{\"v\":1,\"id\":" + std::to_string(id) +
                      ",\"method\":\"lookup_user\",\"params\":{\"user\":" +
                      std::to_string(probe) + "}}"
                : "{\"v\":1,\"id\":" + std::to_string(id) +
                      ",\"method\":\"index_info\"}";
        std::string response = server.SubmitLine(line).get();
        JsonValue root;
        ASSERT_TRUE(JsonParse(response, &root)) << response;
        const JsonValue* ok = root.Find("ok");
        ASSERT_NE(ok, nullptr) << response;
        if (ok->boolean) ok_responses.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t uid = 9'000'000 + t * kPerThread + i;
        std::string line =
            "{\"v\":1,\"id\":" + std::to_string(1'000 + uid) +
            ",\"method\":\"append_tweets\",\"params\":{\"users\":[{\"id\":" +
            std::to_string(uid) +
            ",\"location\":\"Seoul Mapo-gu\",\"total_tweets\":1}],"
            "\"tweets\":[{\"id\":" +
            std::to_string(uid + 1'000'000) + ",\"user\":" +
            std::to_string(uid) +
            ",\"time\":9,\"lat\":37.55,\"lng\":126.94,\"text\":\"h\"}]}}";
        std::string response = server.SubmitLine(line).get();
        JsonValue root;
        ASSERT_TRUE(JsonParse(response, &root)) << response;
        const JsonValue* ok = root.Find("ok");
        ASSERT_NE(ok, nullptr) << response;
        EXPECT_TRUE(ok->boolean) << response;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Drain();

  // Every append landed: the engine grew by exactly the appended rows,
  // every query got a well-formed answer, and the final generation
  // matches the seal count.
  EXPECT_EQ(ok_responses.load(), kQueriers * kPerThread);
  EXPECT_EQ(engine.ingested_users(),
            static_cast<int64_t>(data_->dataset.users().size()) +
                kAppenders * kPerThread);
  EXPECT_EQ(engine.generation(), engine.epochs_sealed());
  engine.SealEpoch();  // flush the sub-epoch tail before counting
  std::shared_ptr<const serve::StudyIndex> index = engine.CurrentIndex();
  EXPECT_EQ(index->user_count(),
            batch_index_->user_count() + kAppenders * kPerThread);
}

}  // namespace
}  // namespace stir::stream
