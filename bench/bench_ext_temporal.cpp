// Extension bench — temporal posting behaviour (the research group's
// companion analysis): hour-of-day posting profile of the synthetic
// Korean corpus, and whether the *spatially* reliable and unreliable
// user groups differ *temporally* (they shouldn't much: geotagging
// habits, not schedules, separate them).

#include "bench_util.h"
#include "core/reliability.h"
#include "core/temporal.h"

int main(int argc, char** argv) {
  using namespace stir;
  double scale = bench::ScaleFromArgs(argc, argv, 0.3);
  bench::PrintHeader("Extension — posting-hour profile",
                     "diurnal cycle of the corpus; Top-1 vs None users");

  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = twitter::DatasetGenerator::KoreanConfig(scale);
  config.plain_tweet_sample = 0.01;  // a text-dense corpus for profiles
  twitter::DatasetGenerator generator(&db, config);
  twitter::GeneratedData data = generator.Generate();
  core::CorrelationStudy study(&db);
  core::StudyResult result = study.Run(bench::ArenaOf(data.dataset));

  auto whole = core::ComputePostingProfile(data.dataset);
  if (!whole.ok()) {
    std::printf("profile failed: %s\n", whole.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", whole->ToString().c_str());
  std::printf("peak %02d:00, trough %02d:00, entropy %.2f bits "
              "(flat would be %.2f)\n\n",
              whole->PeakHour(), whole->TroughHour(), whole->EntropyBits(),
              std::log2(24.0));

  // Aggregate hourly profiles of Top-1 vs None users (GPS tweets only,
  // via the study's per-user tweet indices).
  auto group_profile = [&](core::TopKGroup group) {
    twitter::Dataset subset;
    for (const core::UserGrouping& grouping : result.groupings) {
      if (grouping.group != group) continue;
      subset.AddUser(*data.dataset.FindUser(grouping.user));
      for (size_t index : data.dataset.TweetIndicesOf(grouping.user)) {
        subset.AddTweet(data.dataset.tweets()[index]);
      }
    }
    return core::ComputePostingProfile(subset);
  };
  auto top1 = group_profile(core::TopKGroup::kTop1);
  auto none = group_profile(core::TopKGroup::kNone);

  bool ok = true;
  std::printf("shape checks:\n");
  ok &= bench::Check(whole->PeakHour() >= 17 && whole->PeakHour() <= 23,
                     "evening posting peak (generator's diurnal cycle "
                     "recovered)");
  ok &= bench::Check(whole->TroughHour() >= 1 && whole->TroughHour() <= 6,
                     "small-hours trough");
  if (top1.ok() && none.ok()) {
    double distance = core::ProfileDistance(*top1, *none);
    std::printf("L1 distance Top-1 vs None hourly profiles: %.3f\n",
                distance);
    ok &= bench::Check(distance < 0.35,
                       "spatially reliable and unreliable users keep "
                       "similar schedules");
  } else {
    ok &= bench::Check(false, "group profiles computable");
  }
  return ok ? 0 : 1;
}
