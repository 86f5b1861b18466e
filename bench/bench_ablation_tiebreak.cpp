// Ablation (DESIGN.md §5): the paper never says how equal-count strings
// are ordered in Table II. If the Top-k shares moved under a different
// tie rule, the groups would partly be artifacts of an unstated choice.
// Runs the identical study under lexicographic vs reverse-lexicographic
// tie-breaking and diffs Fig. 7.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace stir;
  double scale = bench::ScaleFromArgs(argc, argv, 1.0);
  bench::PrintHeader("Ablation — Table II tie-break rule",
                     "lexicographic vs reverse-lexicographic tie order");

  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(scale));
  twitter::GeneratedData data = generator.Generate();

  StudyConfig lex_options;
  lex_options.tie_break = core::TieBreak::kLexicographic;
  StudyConfig rev_options;
  rev_options.tie_break = core::TieBreak::kReverseLexicographic;
  io::CorpusView corpus = bench::ArenaOf(data.dataset);
  core::StudyResult lex = core::CorrelationStudy(&db, lex_options).Run(corpus);
  core::StudyResult rev = core::CorrelationStudy(&db, rev_options).Run(corpus);

  // Users whose group flips under the other tie rule.
  int64_t flipped = 0;
  for (size_t i = 0; i < lex.groupings.size(); ++i) {
    flipped += (lex.groupings[i].group != rev.groupings[i].group);
  }

  std::printf("%-8s %12s %12s %8s\n", "group", "lex%", "revlex%", "delta");
  double max_delta = 0.0;
  for (int g = 0; g < core::kNumTopKGroups; ++g) {
    double a = lex.groups[g].user_share * 100.0;
    double b = rev.groups[g].user_share * 100.0;
    max_delta = std::max(max_delta, std::fabs(a - b));
    std::printf("%-8s %11.2f%% %11.2f%% %+7.2f\n",
                core::TopKGroupToString(static_cast<core::TopKGroup>(g)), a,
                b, b - a);
  }
  std::printf("\nusers whose group flips under the other tie rule: %lld of "
              "%lld\n\n",
              static_cast<long long>(flipped),
              static_cast<long long>(lex.final_users));

  bool ok = true;
  std::printf("shape checks:\n");
  ok &= bench::Check(lex.final_users == rev.final_users,
                     "tie rule cannot change the study sample");
  ok &= bench::Check(max_delta < 2.0,
                     "group shares move <2 points under the other rule");
  // Individual users flip readily (with ~20 GPS tweets, equal counts are
  // common), but the flips cancel in aggregate — the interesting finding
  // of this ablation.
  ok &= bench::Check(
      static_cast<double>(flipped) <
          0.15 * static_cast<double>(std::max<int64_t>(1, lex.final_users)),
      "fewer than 15% of users are tie-sensitive individually");
  // None membership is tie-independent by construction (a matched string
  // either exists or not).
  ok &= bench::Check(
      lex.group(core::TopKGroup::kNone).users ==
          rev.group(core::TopKGroup::kNone).users,
      "None group is exactly invariant to tie order");
  return ok ? 0 : 1;
}
