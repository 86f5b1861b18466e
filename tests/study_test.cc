#include "core/study.h"

#include <gtest/gtest.h>

#include "twitter/generator.h"
#include "test_corpus.h"

namespace stir::core {
namespace {

class StudyTest : public ::testing::Test {
 protected:
  StudyTest() : db_(geo::AdminDb::KoreanDistricts()) {}

  twitter::GeneratedData Generate(double scale) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(scale));
    return generator.Generate();
  }

  const geo::AdminDb& db_;
};

TEST_F(StudyTest, SharesAndCountsAreConsistent) {
  twitter::GeneratedData data = Generate(0.05);
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(test::ArenaOf(data.dataset));

  int64_t user_total = 0;
  int64_t tweet_total = 0;
  double user_share_total = 0.0;
  for (int g = 0; g < kNumTopKGroups; ++g) {
    user_total += result.groups[g].users;
    tweet_total += result.groups[g].gps_tweets;
    user_share_total += result.groups[g].user_share;
    EXPECT_GE(result.groups[g].avg_tweet_locations, 0.0);
  }
  EXPECT_EQ(user_total, result.final_users);
  EXPECT_EQ(static_cast<size_t>(result.final_users),
            result.groupings.size());
  EXPECT_NEAR(user_share_total, 1.0, 1e-9);
  EXPECT_EQ(result.funnel.final_users, result.final_users);
  // Every geocoded GPS tweet of a final user is attributed to a group.
  int64_t grouping_tweets = 0;
  for (const UserGrouping& g : result.groupings) {
    grouping_tweets += g.gps_tweet_count;
  }
  EXPECT_EQ(tweet_total, grouping_tweets);
}

TEST_F(StudyTest, DeterministicAcrossRuns) {
  twitter::GeneratedData data = Generate(0.02);
  CorrelationStudy study(&db_);
  StudyResult a = study.Run(test::ArenaOf(data.dataset));
  StudyResult b = study.Run(test::ArenaOf(data.dataset));
  EXPECT_EQ(a.final_users, b.final_users);
  for (int g = 0; g < kNumTopKGroups; ++g) {
    EXPECT_EQ(a.groups[g].users, b.groups[g].users);
    EXPECT_EQ(a.groups[g].gps_tweets, b.groups[g].gps_tweets);
  }
}

TEST_F(StudyTest, PaperShapeHoldsAtScale) {
  // The headline claims (§IV) must hold on the default synthetic corpus:
  //  * Top-1 is the largest group; Top-1+Top-2 ~ half of all users.
  //  * None is roughly 30%.
  //  * Users average ~3 distinct tweet districts.
  //  * Avg district count grows from Top-1 through Top-6+.
  twitter::GeneratedData data = Generate(0.3);
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(test::ArenaOf(data.dataset));
  ASSERT_GT(result.final_users, 200);

  const GroupStats* groups = result.groups;
  double top12 = groups[0].user_share + groups[1].user_share;
  EXPECT_GT(groups[0].user_share, 0.30);
  EXPECT_GT(top12, 0.42);
  EXPECT_LT(top12, 0.68);
  double none = groups[static_cast<int>(TopKGroup::kNone)].user_share;
  EXPECT_GT(none, 0.22);
  EXPECT_LT(none, 0.40);
  EXPECT_GT(result.overall_avg_locations, 2.3);
  EXPECT_LT(result.overall_avg_locations, 4.0);
  // Fig. 6 trend: increasing through the Top-k groups.
  EXPECT_LT(groups[0].avg_tweet_locations, groups[2].avg_tweet_locations);
  EXPECT_LT(groups[2].avg_tweet_locations,
            groups[static_cast<int>(TopKGroup::kTopPlus)]
                .avg_tweet_locations);
  // None users have fewer spots than Top-1 users (low-mobility story).
  EXPECT_LT(groups[static_cast<int>(TopKGroup::kNone)].avg_tweet_locations,
            groups[0].avg_tweet_locations);
}

TEST_F(StudyTest, FunnelShapeMatchesPaperRatios) {
  twitter::GeneratedData data = Generate(0.3);
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(test::ArenaOf(data.dataset));
  const FunnelStats& funnel = result.funnel;
  double well_defined_ratio =
      static_cast<double>(funnel.well_defined_users) /
      static_cast<double>(funnel.crawled_users);
  // Paper: 52.2k -> ~30k (57%).
  EXPECT_GT(well_defined_ratio, 0.50);
  EXPECT_LT(well_defined_ratio, 0.70);
  // Paper: ~1k final out of 52.2k (~2%).
  double final_ratio = static_cast<double>(funnel.final_users) /
                       static_cast<double>(funnel.crawled_users);
  EXPECT_GT(final_ratio, 0.008);
  EXPECT_LT(final_ratio, 0.05);
  // GPS tweets are a sliver of the corpus (paper: tens of k out of 11M).
  double gps_ratio = static_cast<double>(funnel.gps_tweets) /
                     static_cast<double>(funnel.total_tweets);
  EXPECT_LT(gps_ratio, 0.01);
}

TEST_F(StudyTest, ReportStringsRender) {
  twitter::GeneratedData data = Generate(0.02);
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(test::ArenaOf(data.dataset));
  std::string table = result.GroupTableString();
  EXPECT_NE(table.find("Top-1"), std::string::npos);
  EXPECT_NE(table.find("None"), std::string::npos);
  EXPECT_NE(table.find("overall avg"), std::string::npos);
  std::string funnel = result.FunnelString();
  EXPECT_NE(funnel.find("crawled users"), std::string::npos);
  EXPECT_NE(funnel.find("final users"), std::string::npos);
}

TEST_F(StudyTest, EmptyDatasetYieldsEmptyResult) {
  twitter::Dataset empty;
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(test::ArenaOf(empty));
  EXPECT_EQ(result.final_users, 0);
  EXPECT_EQ(result.funnel.crawled_users, 0);
  EXPECT_DOUBLE_EQ(result.overall_avg_locations, 0.0);
}

TEST_F(StudyTest, GroupAccessorMatchesArray) {
  twitter::GeneratedData data = Generate(0.02);
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(test::ArenaOf(data.dataset));
  EXPECT_EQ(result.group(TopKGroup::kTop1).users, result.groups[0].users);
  EXPECT_EQ(result.group(TopKGroup::kNone).users, result.groups[6].users);
}

TEST_F(StudyTest, StudyConfigCarriesFaultAndRetryKnobs) {
  // StudyConfig is the one options surface (the CorrelationStudyOptions
  // shim is gone): its fault/retry knobs must reach the geocoder, and a
  // copied config must reproduce the run byte for byte.
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;
  config.threads = 2;
  config.fault.error_rate = 0.1;
  config.retry.max_attempts = 2;
  EXPECT_FALSE(config.obs.metrics_enabled());

  StudyResult result =
      CorrelationStudy(&db_, config).Run(test::ArenaOf(data.dataset));
  EXPECT_TRUE(result.funnel.fault_injection_enabled);
  EXPECT_GT(result.funnel.geocode_faulted, 0);

  StudyConfig copy = config;
  StudyResult again =
      CorrelationStudy(&db_, copy).Run(test::ArenaOf(data.dataset));
  EXPECT_EQ(result.FunnelString(), again.FunnelString());
  EXPECT_EQ(result.GroupTableString(), again.GroupTableString());
}

TEST_F(StudyTest, ObservabilityDoesNotPerturbResults) {
  // The byte-identical guarantee: with metrics + tracing on, the study's
  // human-readable output must match the uninstrumented run exactly.
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig plain;
  plain.threads = 4;
  StudyResult baseline =
      CorrelationStudy(&db_, plain).Run(test::ArenaOf(data.dataset));

  StudyConfig observed = plain;
  observed.obs.enable_metrics = true;
  observed.obs.enable_trace = true;
  StudyResult instrumented =
      CorrelationStudy(&db_, observed).Run(test::ArenaOf(data.dataset));

  EXPECT_EQ(baseline.FunnelString(), instrumented.FunnelString());
  EXPECT_EQ(baseline.GroupTableString(), instrumented.GroupTableString());
  EXPECT_TRUE(baseline.metrics.empty());
  EXPECT_TRUE(baseline.trace.empty());
  EXPECT_FALSE(instrumented.metrics.empty());
  EXPECT_FALSE(instrumented.trace.empty());
}

TEST_F(StudyTest, MetricsDropCountersMatchFunnel) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;
  config.threads = 4;
  config.obs.enable_metrics = true;
  config.fault.error_rate = 0.2;
  config.fault.seed = 7;
  StudyResult result =
      CorrelationStudy(&db_, config).Run(test::ArenaOf(data.dataset));
  const obs::MetricsSnapshot& m = result.metrics;
  const FunnelStats& funnel = result.funnel;

  EXPECT_EQ(m.counter("funnel.users.crawled"), funnel.crawled_users);
  EXPECT_EQ(m.counter("funnel.users.final"), funnel.final_users);
  // Profile-stage drops sum exactly to crawled - well_defined.
  int64_t profile_drops = m.counter("funnel.drop.profile_empty") +
                          m.counter("funnel.drop.profile_vague") +
                          m.counter("funnel.drop.profile_insufficient") +
                          m.counter("funnel.drop.profile_ambiguous");
  EXPECT_EQ(profile_drops,
            funnel.crawled_users - funnel.well_defined_users);
  // User-stage drop closes the funnel to the final sample.
  EXPECT_EQ(m.counter("funnel.drop.no_geocoded_tweets"),
            funnel.well_defined_users - funnel.final_users);
  EXPECT_EQ(m.counter("funnel.drop.geocode_failure"),
            funnel.geocode_failures);
  // Resilience counters mirror the funnel's fault accounting.
  EXPECT_EQ(m.counter("funnel.resilience.faulted"), funnel.geocode_faulted);
  EXPECT_EQ(m.counter("funnel.resilience.retried"), funnel.geocode_retried);
  EXPECT_EQ(m.counter("funnel.resilience.degraded"),
            funnel.geocode_degraded);
}

TEST_F(StudyTest, TraceCoversPipelineStages) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;
  config.threads = 4;
  config.obs.enable_trace = true;
  StudyResult result =
      CorrelationStudy(&db_, config).Run(test::ArenaOf(data.dataset));
  const obs::TraceSnapshot& trace = result.trace;
  EXPECT_EQ(trace.CountNamed("study"), 1);
  EXPECT_EQ(trace.CountNamed("refinement"), 1);
  EXPECT_EQ(trace.CountNamed("grouping"), 1);
  EXPECT_EQ(trace.CountNamed("aggregate"), 1);
  EXPECT_GT(trace.CountNamed("refine.shard"), 0);
  EXPECT_GT(trace.CountNamed("geocode"), 0);
  // Every span ended before the snapshot.
  for (const obs::SpanRecord& span : trace.spans) {
    EXPECT_GE(span.end_us, span.start_us) << span.name;
  }

  // The coarse tier alone when per-lookup spans are off.
  config.obs.trace_geocode_calls = false;
  StudyResult coarse =
      CorrelationStudy(&db_, config).Run(test::ArenaOf(data.dataset));
  EXPECT_EQ(coarse.trace.CountNamed("geocode"), 0);
  EXPECT_EQ(coarse.trace.CountNamed("study"), 1);
}

}  // namespace
}  // namespace stir::core
