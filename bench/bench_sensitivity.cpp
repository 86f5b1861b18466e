// Sensitivity sweep: how the reproduced Fig. 7 responds to the two
// assumptions the paper's data cannot pin down — the share of relocated
// users (the None driver) and the geotagger fraction (the funnel
// driver). The qualitative conclusions must be stable across the
// plausible range; the sweep shows which paper numbers constrain which
// generator knobs.

#include "bench_util.h"

namespace {

stir::core::StudyResult RunWith(double relocated, double geotagger,
                                double scale) {
  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();
  auto config = stir::twitter::DatasetGenerator::KoreanConfig(scale);
  // Shift mass between relocated and homebody, keeping the rest fixed.
  double delta = relocated - config.mobility.frac_relocated;
  config.mobility.frac_relocated = relocated;
  config.mobility.frac_homebody -= delta;
  config.geotagger_fraction = geotagger;
  stir::twitter::DatasetGenerator generator(&db, config);
  auto data = generator.Generate();
  stir::core::CorrelationStudy study(&db);
  return study.Run(stir::bench::ArenaOf(data.dataset));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stir;
  double scale = bench::ScaleFromArgs(argc, argv, 0.3);
  bench::PrintHeader("Sensitivity — generator assumptions vs Fig. 7",
                     "sweeping relocated share and geotagger fraction");

  const double relocated_values[] = {0.08, 0.15, 0.25};
  const double geotagger_values[] = {0.02, 0.035, 0.08};

  std::printf("%-12s %-12s | %8s %8s %8s %10s\n", "relocated", "geotaggers",
              "Top-1%", "None%", "final", "avg_loc");
  double none_by_relocated[3] = {};
  double top1_min = 1.0, top1_max = 0.0;
  bool always_top1_dominant = true;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t g = 0; g < 3; ++g) {
      core::StudyResult result =
          RunWith(relocated_values[r], geotagger_values[g], scale);
      double top1 = result.groups[0].user_share;
      double none =
          result.groups[static_cast<int>(core::TopKGroup::kNone)].user_share;
      if (g == 1) none_by_relocated[r] = none;
      top1_min = std::min(top1_min, top1);
      top1_max = std::max(top1_max, top1);
      for (int k = 1; k < core::kNumTopKGroups - 1; ++k) {
        always_top1_dominant &=
            top1 >= result.groups[k].user_share;
      }
      std::printf("%-12.2f %-12.3f | %7.1f%% %7.1f%% %8lld %10.2f\n",
                  relocated_values[r], geotagger_values[g], top1 * 100.0,
                  none * 100.0, static_cast<long long>(result.final_users),
                  result.overall_avg_locations);
    }
  }
  std::printf("\n");

  bool ok = true;
  std::printf("shape checks:\n");
  ok &= bench::Check(
      none_by_relocated[0] < none_by_relocated[1] &&
          none_by_relocated[1] < none_by_relocated[2],
      "None share rises monotonically with the relocated share "
      "(the knob the paper's ~30% pins down)");
  ok &= bench::Check(always_top1_dominant,
                     "Top-1 stays the largest Top-k group across the "
                     "entire sweep");
  ok &= bench::Check(top1_max - top1_min < 0.25,
                     "Top-1 share stays within a 25-point band");
  return ok ? 0 : 1;
}
