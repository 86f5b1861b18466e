// Earthquake detection (Toretter scenario): citizen sensors report a
// simulated quake; the detector raises a temporal alarm and estimates the
// epicenter three ways — GPS only, profile locations unweighted, and
// profile locations weighted by the reliability model this library fits.
// This is the paper's future-work experiment (§V) made concrete.
//
// Usage: earthquake_detection [scale]

#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "core/study.h"
#include "event/event_sim.h"
#include "event/toretter.h"
#include "geo/admin_db.h"
#include "io/corpus_reader.h"
#include "twitter/generator.h"

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.1;
  if (scale <= 0.0) scale = 0.1;

  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();

  // Population + study (for profile regions and reliability weights).
  stir::twitter::DatasetGenerator generator(
      &db, stir::twitter::DatasetGenerator::KoreanConfig(scale));
  stir::twitter::GeneratedData data = generator.Generate();
  auto corpus = stir::io::ArenaFromDataset(data.dataset);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  stir::core::CorrelationStudy study(&db);
  stir::core::StudyResult result = study.Run(*corpus);
  stir::core::ReliabilityModel reliability =
      stir::core::ReliabilityModel::FromGroupings(result.groupings);

  // Profile regions for every user with a parseable location (the event
  // detector falls back on these when a report has no GPS).
  std::unordered_map<stir::twitter::UserId, stir::geo::RegionId> profiles;
  for (const stir::core::RefinedUser& user : result.refined) {
    profiles.emplace(user.user, user.profile_region);
  }

  // A quake off Pohang (east coast), strongly felt across Gyeongsang.
  stir::event::EventSpec quake;
  quake.epicenter = {36.10, 129.40};
  quake.start_time = 30 * stir::kSecondsPerDay;
  quake.felt_radius_km = 180.0;
  quake.response_rate = 0.35;
  quake.mean_delay_seconds = 150.0;

  stir::event::EventSimulator simulator(&db, &data.truth);
  stir::Rng rng(7);
  std::vector<stir::event::WitnessReport> reports =
      simulator.Simulate(quake, data.dataset.users(), rng);
  int64_t with_gps = 0;
  for (const auto& report : reports) with_gps += report.gps.has_value();
  std::printf("event at %s, epicenter %s\n",
              stir::FormatSimTime(quake.start_time).c_str(),
              quake.epicenter.ToString().c_str());
  std::printf("%zu witness reports (%lld with GPS)\n\n", reports.size(),
              static_cast<long long>(with_gps));

  // Temporal alarm.
  stir::event::ToretterOptions detect_options;
  detect_options.min_reports = 8;
  stir::event::ToretterDetector detector(&db, detect_options);
  stir::event::DetectionResult alarm = detector.DetectOnset(reports);
  if (alarm.detected) {
    std::printf("ALARM at %s (+%llds after onset, %lld reports seen)\n\n",
                stir::FormatSimTime(alarm.alarm_time).c_str(),
                static_cast<long long>(alarm.alarm_time - quake.start_time),
                static_cast<long long>(alarm.reports_at_alarm));
  } else {
    std::printf("no alarm raised (population too small at this scale)\n\n");
  }

  // Epicenter estimation under the three source configurations.
  struct Config {
    const char* label;
    stir::event::LocationSource source;
    bool weighted;
  };
  const Config configs[] = {
      {"GPS only                    ", stir::event::LocationSource::kGpsOnly,
       false},
      {"profile, unweighted         ",
       stir::event::LocationSource::kProfileOnly, false},
      {"profile, reliability-weight ",
       stir::event::LocationSource::kProfileOnly, true},
      {"GPS+profile, unweighted     ",
       stir::event::LocationSource::kGpsWithProfileFallback, false},
      {"GPS+profile, reliability    ",
       stir::event::LocationSource::kGpsWithProfileFallback, true},
  };
  std::printf("%-30s %-10s %-22s %s\n", "source", "estimator",
              "estimated epicenter", "error_km");
  for (const Config& config : configs) {
    for (auto estimator : {stir::event::LocationEstimator::kWeightedCentroid,
                           stir::event::LocationEstimator::kParticle}) {
      stir::event::ToretterOptions options;
      options.source = config.source;
      options.reliability_weighted = config.weighted;
      options.estimator = estimator;
      stir::event::ToretterDetector estimator_detector(&db, options);
      estimator_detector.set_profile_regions(&profiles);
      estimator_detector.set_reliability(&reliability);
      stir::Rng est_rng(11);
      auto estimate = estimator_detector.EstimateLocation(reports, est_rng);
      if (!estimate.ok()) {
        std::printf("%-30s %-10s %s\n", config.label,
                    LocationEstimatorToString(estimator),
                    estimate.status().ToString().c_str());
        continue;
      }
      double error =
          stir::geo::HaversineKm(estimate->location, quake.epicenter);
      std::printf("%-30s %-10s %-22s %8.1f\n", config.label,
                  LocationEstimatorToString(estimator),
                  estimate->location.ToString().c_str(), error);
    }
  }
  return 0;
}
