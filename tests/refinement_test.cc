#include "core/refinement.h"

#include <gtest/gtest.h>

#include "twitter/dataset.h"
#include "test_corpus.h"

namespace stir::core {
namespace {

class RefinementTest : public ::testing::Test {
 protected:
  RefinementTest()
      : db_(geo::AdminDb::KoreanDistricts()),
        parser_(&db_),
        geocoder_(&db_) {}

  twitter::User MakeUser(twitter::UserId id, const std::string& location,
                         int64_t total = 10) {
    twitter::User user;
    user.id = id;
    user.handle = "u" + std::to_string(id);
    user.profile_location = location;
    user.total_tweets = total;
    return user;
  }

  twitter::Tweet GpsTweet(twitter::TweetId id, twitter::UserId user,
                          const geo::LatLng& gps) {
    twitter::Tweet tweet;
    tweet.id = id;
    tweet.user = user;
    tweet.time = id;
    tweet.gps = gps;
    tweet.text = "t";
    return tweet;
  }

  const geo::AdminDb& db_;
  text::LocationParser parser_;
  geo::ReverseGeocoder geocoder_;
};

TEST_F(RefinementTest, FunnelCountsEveryQualityClass) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));        // well-defined
  dataset.AddUser(MakeUser(2, ""));                     // empty
  dataset.AddUser(MakeUser(3, "Earth"));                // vague
  dataset.AddUser(MakeUser(4, "Korea"));                // insufficient
  dataset.AddUser(MakeUser(5, "Jung-gu"));              // ambiguous
  dataset.AddUser(MakeUser(6, "Busan Haeundae-gu"));    // well-defined
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));  // Mapo-gu
  // User 6 has no GPS tweets -> drops at the second gate.

  FunnelStats funnel;
  RefinementPipeline pipeline(&parser_, &geocoder_);
  std::vector<RefinedUser> refined =
      pipeline.Run(test::ArenaOf(dataset), &funnel);

  EXPECT_EQ(funnel.crawled_users, 6);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kEmpty)],
            1);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kVague)],
            1);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kInsufficient)],
            1);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kAmbiguous)],
            1);
  EXPECT_EQ(funnel.well_defined_users, 2);
  EXPECT_EQ(funnel.final_users, 1);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].user, 1);
  EXPECT_EQ(db_.region(refined[0].profile_region).county, "Mapo-gu");
  ASSERT_EQ(refined[0].tweet_regions.size(), 1u);
  EXPECT_EQ(db_.region(refined[0].tweet_regions[0]).county, "Mapo-gu");
}

TEST_F(RefinementTest, GeocodeFailuresCountedNotFatal) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));  // fine
  dataset.AddTweet(GpsTweet(2, 1, {20.0, -150.0}));       // mid-Pacific

  FunnelStats funnel;
  RefinementPipeline pipeline(&parser_, &geocoder_);
  std::vector<RefinedUser> refined =
      pipeline.Run(test::ArenaOf(dataset), &funnel);
  EXPECT_EQ(funnel.geocode_failures, 1);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].tweet_regions.size(), 1u);
}

TEST_F(RefinementTest, UserWithOnlyUnGeocodableTweetsDrops) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));
  dataset.AddTweet(GpsTweet(1, 1, {20.0, -150.0}));
  FunnelStats funnel;
  RefinementPipeline pipeline(&parser_, &geocoder_);
  EXPECT_TRUE(pipeline.Run(test::ArenaOf(dataset), &funnel).empty());
  EXPECT_EQ(funnel.well_defined_users, 1);
  EXPECT_EQ(funnel.final_users, 0);
}

TEST_F(RefinementTest, FaithfulXmlPipelineMatchesStructuredPath) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Gyeonggi-do Uiwang-si"));
  Rng rng(4);
  auto uiwang = db_.FindCounty("Gyeonggi-do", "Uiwang-si");
  ASSERT_TRUE(uiwang.ok());
  for (twitter::TweetId t = 0; t < 10; ++t) {
    dataset.AddTweet(GpsTweet(t, 1, db_.SamplePointIn(*uiwang, rng)));
  }

  RefinementOptions faithful;
  faithful.faithful_xml_pipeline = true;
  geo::ReverseGeocoder geocoder_a(&db_), geocoder_b(&db_);
  RefinementPipeline structured(&parser_, &geocoder_a);
  RefinementPipeline xml(&parser_, &geocoder_b, faithful);

  FunnelStats fa, fb;
  auto a = structured.Run(test::ArenaOf(dataset), &fa);
  auto b = xml.Run(test::ArenaOf(dataset), &fb);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].tweet_regions, b[0].tweet_regions);
  EXPECT_EQ(fa.final_users, fb.final_users);
}

TEST_F(RefinementTest, NullFunnelPointerAccepted) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));
  RefinementPipeline pipeline(&parser_, &geocoder_);
  EXPECT_EQ(pipeline.Run(test::ArenaOf(dataset), nullptr).size(), 1u);
}

TEST_F(RefinementTest, TotalTweetsPreservedOnRefinedUsers) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu", 1234));
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));
  RefinementPipeline pipeline(&parser_, &geocoder_);
  auto refined = pipeline.Run(test::ArenaOf(dataset), nullptr);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].total_tweets, 1234);
}

}  // namespace
}  // namespace stir::core
