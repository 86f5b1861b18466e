// End-to-end integration tests: generator -> refinement -> grouping ->
// study -> reliability -> event detection, checked against the ground
// truth the generator kept aside.

#include <gtest/gtest.h>

#include "core/reliability.h"
#include "core/study.h"
#include "event/event_sim.h"
#include "event/toretter.h"
#include "twitter/generator.h"
#include "test_corpus.h"

namespace stir {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : db_(geo::AdminDb::KoreanDistricts()) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(0.15));
    data_ = generator.Generate();
    core::CorrelationStudy study(&db_);
    result_ = study.Run(test::ArenaOf(data_.dataset));
  }

  const geo::AdminDb& db_;
  twitter::GeneratedData data_;
  core::StudyResult result_;
};

TEST_F(IntegrationTest, RecoveredProfileRegionMatchesClaimedGroundTruth) {
  // For every refined user, the parsed profile region must equal the
  // district the generator intended ("claimed") — the parser undoes the
  // text noise the profile generator added.
  for (const core::RefinedUser& user : result_.refined) {
    const twitter::MobilityProfile& truth = data_.truth.mobility.at(user.user);
    EXPECT_EQ(user.profile_region, truth.claimed)
        << "user " << user.user << ": parsed "
        << db_.region(user.profile_region).FullName() << " vs claimed "
        << db_.region(truth.claimed).FullName();
  }
}

TEST_F(IntegrationTest, RelocatedUsersLandInNoneGroup) {
  // Ground-truth relocated users never tweet from their claimed district,
  // so the pipeline must classify every one of them as None.
  int relocated_seen = 0;
  for (const core::UserGrouping& grouping : result_.groupings) {
    const twitter::MobilityProfile& truth =
        data_.truth.mobility.at(grouping.user);
    if (truth.archetype == twitter::Archetype::kRelocated) {
      ++relocated_seen;
      EXPECT_EQ(grouping.group, core::TopKGroup::kNone)
          << "user " << grouping.user;
    }
    if (truth.archetype == twitter::Archetype::kGeotagSelective) {
      EXPECT_EQ(grouping.group, core::TopKGroup::kNone)
          << "selective user " << grouping.user;
    }
  }
  EXPECT_GT(relocated_seen, 10);
}

TEST_F(IntegrationTest, HomebodiesMostlyTop1) {
  int64_t homebodies = 0, top1 = 0;
  for (const core::UserGrouping& grouping : result_.groupings) {
    const twitter::MobilityProfile& truth =
        data_.truth.mobility.at(grouping.user);
    if (truth.archetype != twitter::Archetype::kHomebody) continue;
    ++homebodies;
    top1 += (grouping.group == core::TopKGroup::kTop1);
  }
  ASSERT_GT(homebodies, 30);
  EXPECT_GT(static_cast<double>(top1) / static_cast<double>(homebodies),
            0.6);
}

TEST_F(IntegrationTest, ReliabilityWeightsSeparateGroups) {
  core::ReliabilityModel reliability =
      core::ReliabilityModel::FromGroupings(result_.groupings);
  EXPECT_GT(reliability.GroupWeight(core::TopKGroup::kTop1), 0.5);
  EXPECT_LT(reliability.GroupWeight(core::TopKGroup::kNone), 0.05);
  EXPECT_GT(reliability.GroupWeight(core::TopKGroup::kTop1),
            reliability.GroupWeight(core::TopKGroup::kTop3));
}

TEST_F(IntegrationTest, ReliabilityWeightingImprovesProfileEstimates) {
  // The paper's future-work hypothesis, verified on synthetic events:
  // averaged over several quakes, reliability-weighted profile-location
  // estimation beats unweighted profile-location estimation.
  core::ReliabilityModel reliability =
      core::ReliabilityModel::FromGroupings(result_.groupings);
  std::unordered_map<twitter::UserId, geo::RegionId> profiles;
  for (const core::RefinedUser& user : result_.refined) {
    profiles.emplace(user.user, user.profile_region);
  }

  const geo::LatLng epicenters[] = {
      {37.55, 127.00}, {35.20, 129.00}, {36.35, 127.40},
      {35.85, 128.60}, {37.30, 127.00},
  };
  event::EventSimulator simulator(&db_, &data_.truth);
  double unweighted_error = 0.0, weighted_error = 0.0;
  int events = 0;
  for (const geo::LatLng& epicenter : epicenters) {
    event::EventSpec spec;
    spec.epicenter = epicenter;
    spec.felt_radius_km = 150.0;
    spec.response_rate = 0.5;
    Rng rng(static_cast<uint64_t>(epicenter.lat * 1000));
    auto reports = simulator.Simulate(spec, data_.dataset.users(), rng);
    if (reports.size() < 30) continue;

    event::ToretterOptions base;
    base.source = event::LocationSource::kProfileOnly;
    base.estimator = event::LocationEstimator::kWeightedCentroid;
    event::ToretterDetector plain(&db_, base);
    plain.set_profile_regions(&profiles);

    event::ToretterOptions weighted_options = base;
    weighted_options.reliability_weighted = true;
    event::ToretterDetector weighted(&db_, weighted_options);
    weighted.set_profile_regions(&profiles);
    weighted.set_reliability(&reliability);

    Rng rng_a(1), rng_b(1);
    auto a = plain.EstimateLocation(reports, rng_a);
    auto b = weighted.EstimateLocation(reports, rng_b);
    if (!a.ok() || !b.ok()) continue;
    unweighted_error += geo::HaversineKm(a->location, epicenter);
    weighted_error += geo::HaversineKm(b->location, epicenter);
    ++events;
  }
  ASSERT_GE(events, 3);
  // Weighted should not be worse on average (it removes relocated-user
  // noise); allow a small tolerance for sampling luck.
  EXPECT_LT(weighted_error, unweighted_error * 1.05)
      << "weighted " << weighted_error / events << " km vs unweighted "
      << unweighted_error / events << " km over " << events << " events";
}

TEST_F(IntegrationTest, LadyGagaDatasetShowsWeakerLocality) {
  const geo::AdminDb& world = geo::AdminDb::WorldCities();
  twitter::DatasetGenerator generator(
      &world, twitter::DatasetGenerator::LadyGagaConfig(0.3));
  twitter::GeneratedData gaga = generator.Generate();
  core::CorrelationStudy study(&world);
  core::StudyResult gaga_result = study.Run(test::ArenaOf(gaga.dataset));
  ASSERT_GT(gaga_result.final_users, 100);

  double korean_top1 = result_.group(core::TopKGroup::kTop1).user_share;
  double gaga_top1 = gaga_result.group(core::TopKGroup::kTop1).user_share;
  double korean_none = result_.group(core::TopKGroup::kNone).user_share;
  double gaga_none = gaga_result.group(core::TopKGroup::kNone).user_share;
  EXPECT_LT(gaga_top1, korean_top1);
  EXPECT_GT(gaga_none, korean_none);
}

TEST_F(IntegrationTest, DatasetSurvivesTsvRoundTripWithIdenticalStudy) {
  std::string users_path = ::testing::TempDir() + "/stir_it_users.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_it_tweets.tsv";
  ASSERT_TRUE(data_.dataset.SaveTsv(users_path, tweets_path).ok());
  auto loaded = twitter::Dataset::LoadTsv(users_path, tweets_path);
  ASSERT_TRUE(loaded.ok());
  core::CorrelationStudy study(&db_);
  core::StudyResult reloaded = study.Run(test::ArenaOf(*loaded));
  EXPECT_EQ(reloaded.final_users, result_.final_users);
  for (int g = 0; g < core::kNumTopKGroups; ++g) {
    EXPECT_EQ(reloaded.groups[g].users, result_.groups[g].users) << g;
  }
  std::remove(users_path.c_str());
  std::remove(tweets_path.c_str());
}

}  // namespace
}  // namespace stir
