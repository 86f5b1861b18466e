// study_batch: the paper's study repeated in-process on a generated
// arena corpus (open/verify -> refine -> group -> aggregate -> report
// JSON) at 1 and 2 threads, then the inference index build and the
// three-strategy evaluation. Refinement, geocoding, grouping and the
// index builds do nearly all the work; no scheduler or socket is used.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/grouping.h"
#include "core/refinement.h"
#include "core/report.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "geo/reverse_geocoder.h"
#include "infer/eval.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "io/corpus.h"
#include "io/truth_sidecar.h"
#include "obs/metrics.h"
#include "serve/study_index.h"
#include "text/gazetteer_matcher.h"
#include "text/location_parser.h"
#include "text/normalize.h"
#include "util.h"
#include "workload_common.h"

namespace perfbench {
namespace {

using stir::geo::AdminDb;

/// Korean-preset scale of the study corpus: 156.6k crawled users, about
/// 3.3k final users and 100k GPS tweets.
constexpr double kStudyScale = 3.0;
/// Accuracy floor for diurnal inference on GPS-rich users (the gate
/// bench_infer uses at night-home bias 0.65).
constexpr double kDiurnalFloor = 0.80;

std::string GroupForRankName(int rank) {
  if (rank < 0) return "None";
  if (rank >= 6) return "Top-6+";
  return "Top-" + std::to_string(rank);
}

/// Independent checks of one study result against the corpus columns.
void CheckStudy(const stir::core::StudyResult& r,
                const stir::io::CorpusView& view, const AdminDb& db,
                Result* out) {
  const stir::core::FunnelStats& f = r.funnel;
  int64_t quality_sum = 0;
  for (int64_t q : f.quality_counts) quality_sum += q;
  out->Check(f.crawled_users == quality_sum + f.corrupt_window_users,
             "crawled users equal the sum of the quality counts");
  out->Check(f.crawled_users == static_cast<int64_t>(view.user_count()),
             "crawled users equal the corpus user count");

  int64_t group_users = 0;
  int64_t group_gps = 0;
  double share_sum = 0;
  for (const stir::core::GroupStats& g : r.groups) {
    group_users += g.users;
    group_gps += g.gps_tweets;
    share_sum += g.user_share;
  }
  out->Check(group_users == r.final_users && r.final_users == f.final_users,
             "group users sum to final users");
  out->Check(std::fabs(share_sum - 1.0) < 1e-9, "user shares sum to 1");
  int64_t refined_regions = 0;
  for (const stir::core::RefinedUser& u : r.refined) {
    refined_regions += static_cast<int64_t>(u.tweet_regions.size());
  }
  out->Check(group_gps == refined_regions,
             "group GPS tweets sum to the refined tweet regions");
  out->Check(r.groupings.size() == r.refined.size(),
             "one grouping per refined user");

  std::unordered_map<int64_t, size_t> row_of;
  row_of.reserve(view.user_count());
  for (size_t row = 0; row < view.user_count(); ++row) {
    row_of[view.user_id(row)] = row;
  }
  int64_t region_mismatches = 0;
  int64_t rank_mismatches = 0;
  for (size_t i = 0; i < r.refined.size() && i < r.groupings.size(); ++i) {
    const stir::core::RefinedUser& u = r.refined[i];
    const auto it = row_of.find(u.user);
    if (it == row_of.end()) {
      ++region_mismatches;
      continue;
    }
    std::vector<stir::geo::RegionId> located;
    for (uint64_t pos = view.user_tweet_begin(it->second);
         pos < view.user_tweet_end(it->second); ++pos) {
      const size_t row = view.user_tweet_row(pos);
      if (!view.tweet_has_gps(row)) continue;
      auto region = db.Locate(view.tweet_gps(row));
      if (region.ok()) located.push_back(*region);
    }
    if (located != u.tweet_regions) ++region_mismatches;

    // Re-rank: merge the user's tweet districts by display name, order by
    // count descending then by "state#county" ascending, find the profile
    // district's 1-based rank.
    std::map<std::string, int64_t> counts;
    for (stir::geo::RegionId id : located) {
      const stir::geo::Region& region = db.region(id);
      ++counts[region.state + "#" + region.county];
    }
    std::vector<std::pair<std::string, int64_t>> ordered(counts.begin(),
                                                         counts.end());
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    const stir::geo::Region& profile = db.region(u.profile_region);
    const std::string profile_key = profile.state + "#" + profile.county;
    int rank = -1;
    for (size_t k = 0; k < ordered.size(); ++k) {
      if (ordered[k].first == profile_key) rank = static_cast<int>(k) + 1;
    }
    const stir::core::UserGrouping& g = r.groupings[i];
    if (g.user != u.user || g.match_rank != rank ||
        stir::core::TopKGroupToString(g.group) != GroupForRankName(rank)) {
      ++rank_mismatches;
    }
  }
  out->Check(region_mismatches == 0,
             "every refined tweet region equals AdminDb::Locate of its fix (" +
                 std::to_string(region_mismatches) + " users differ)");
  out->Check(rank_mismatches == 0,
             "every Top-k group matches the re-ranking (" +
                 std::to_string(rank_mismatches) + " users differ)");
}

stir::StudyConfig ConfigFor(int threads) {
  stir::StudyConfig config;
  config.threads = threads;
  return config;
}

/// One complete study: open/verify -> refine -> group -> aggregate ->
/// report JSON. Returns wall seconds; fills `result`.
double PlainStudy(const std::string& corpus, const AdminDb& db, int threads,
                  const std::string& report_dir,
                  stir::core::StudyResult* result, Result* out) {
  const Clock::time_point start = Clock::now();
  auto view = stir::io::CorpusView::Open(corpus);
  if (!out->Check(view.ok(), "corpus opens")) return 0;
  stir::core::CorrelationStudy study(&db, ConfigFor(threads));
  *result = study.Run(*view);
  const stir::Status written =
      stir::core::WriteStudyReportJson(*result, report_dir);
  const double seconds = SecondsSince(start);
  out->Check(written.ok(), "report.json written");
  return seconds;
}

/// The same study with a span around each layer call and the program's
/// geocode.* counters on. Returns wall seconds.
double TracedStudy(const std::string& corpus, const AdminDb& db, int threads,
                   const std::string& report_dir, SpanLog* spans,
                   LayerTimes* layers, Result* out) {
  // Layers are recorded from the 1-thread study; the 2-thread one adds
  // only its refinement time.
  const bool serial = threads == 1;
  auto record = [&](const std::string& name, double seconds) {
    if (serial) layers->Add(name, seconds);
  };
  const Clock::time_point start = Clock::now();
  stir::StatusOr<stir::io::CorpusView> view =
      stir::Status(stir::StatusCode::kInternal, "unopened");
  record("io.open_verify_s",
         Timed(spans, "io.CorpusView::Open",
               [&] { view = stir::io::CorpusView::Open(corpus); }));
  if (!out->Check(view.ok(), "corpus opens")) return 0;
  stir::obs::MetricsRegistry metrics;
  stir::StudyConfig config = ConfigFor(threads);
  config.obs.metrics = &metrics;
  stir::geo::ReverseGeocoderOptions geocoder_options = config.geocoder;
  geocoder_options.metrics = &metrics;
  stir::geo::ReverseGeocoder geocoder(&db, geocoder_options);
  stir::text::LocationParser parser(&db);
  stir::core::RefinementPipeline pipeline(&parser, &geocoder, config);
  std::unique_ptr<stir::common::ThreadPool> pool;
  if (!serial) pool = std::make_unique<stir::common::ThreadPool>(threads);
  stir::core::StudyResult result;
  layers->Add(serial ? "core.refine_s" : "core.refine_t2_s",
              Timed(spans, "core.RefinementPipeline::Run", [&] {
                result.refined =
                    pipeline.Run(*view, &result.funnel, pool.get());
              }));
  record("core.group_s", Timed(spans, "core.GroupUsers", [&] {
           result.groupings = stir::core::GroupUsers(
               result.refined, db, config.tie_break, pool.get());
         }));
  record("core.aggregate_s",
         Timed(spans, "core.AggregateGroups",
               [&] { stir::core::AggregateGroups(&result); }));
  record("core.report_s", Timed(spans, "core.WriteStudyReportJson", [&] {
           out->Check(
               stir::core::WriteStudyReportJson(result, report_dir).ok(),
               "report.json written");
         }));
  const double seconds = SecondsSince(start);
  const stir::obs::MetricsSnapshot snap = metrics.Snapshot();
  const int64_t queries = snap.counter("geocode.queries");
  if (queries > 0 && serial) {
    layers->Add("geo.cache_hit_ratio",
                static_cast<double>(snap.counter("geocode.cache_hits")) /
                    static_cast<double>(queries));
  }
  if (serial) {
    layers->Add("serve.study_index_build_s",
                Timed(spans, "serve.StudyIndex::Build", [&] {
                  auto index = stir::serve::StudyIndex::Build(result, db);
                  out->Check(!index.empty(), "study index builds");
                }));
  }
  return seconds;
}

/// Per-call costs of the geocoding and text layers over the corpus.
void MicroLayers(const stir::io::CorpusView& view, const AdminDb& db,
                 SpanLog* spans, Result* out) {
  std::vector<uint32_t> refs;
  refs.reserve(view.user_count());
  for (size_t row = 0; row < view.user_count(); ++row) {
    refs.push_back(view.user_profile_ref(row));
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  stir::text::LocationParser parser(&db);
  int64_t well_defined = 0;
  const double parse_s = Timed(spans, "text.LocationParser::Parse", [&] {
    for (uint32_t ref : refs) {
      well_defined += parser.Parse(view.arena_string(ref)).quality ==
                      stir::text::LocationQuality::kWellDefined;
    }
  });
  out->Metric("text.profile_parse_ns",
              parse_s * 1e9 /
                  static_cast<double>(std::max<size_t>(1, refs.size())),
              "ns");

  std::vector<stir::geo::LatLng> fixes;
  for (size_t row = 0; row < view.tweet_count(); ++row) {
    if (view.tweet_has_gps(row)) fixes.push_back(view.tweet_gps(row));
  }
  const double per_fix =
      1e9 / static_cast<double>(std::max<size_t>(1, fixes.size()));
  stir::geo::ReverseGeocoder geocoder(&db);
  int64_t reversed = 0;
  const double reverse_s = Timed(spans, "geo.ReverseGeocoder::Reverse", [&] {
    for (const stir::geo::LatLng& fix : fixes) {
      reversed += geocoder.Reverse(fix).ok();
    }
  });
  out->Metric("geo.reverse_ns", reverse_s * per_fix, "ns");
  int64_t located = 0;
  const double locate_s = Timed(spans, "geo.AdminDb::Locate", [&] {
    for (const stir::geo::LatLng& fix : fixes) located += db.Locate(fix).ok();
  });
  out->Metric("geo.locate_ns", locate_s * per_fix, "ns");
  out->Check(reversed == located, "Reverse and Locate resolve the same fixes");

  stir::text::GazetteerMatcher matcher(&db);
  int64_t matches = 0;
  const double match_s =
      Timed(spans, "text.TokenizeTweet+GazetteerMatcher::Match", [&] {
        for (size_t row = 0; row < view.tweet_count(); ++row) {
          matches += static_cast<int64_t>(
              matcher.Match(stir::text::TokenizeTweet(view.tweet_text(row)))
                  .size());
        }
      });
  out->Metric("text.tweet_match_ns",
              match_s * 1e9 /
                  static_cast<double>(std::max<size_t>(1, view.tweet_count())),
              "ns");
}

}  // namespace

void RunStudyBatch(const Args& args, Clock::time_point process_start,
                   Result* out) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  SpanLog spans(args.trace);
  SpanLog* span_log = args.trace ? &spans : nullptr;
  const std::string corpus = args.work + "/study.stir";
  const std::string report1 = args.work + "/report_t1";
  const std::string report2 = args.work + "/report_t2";
  mkdir(report1.c_str(), 0755);
  mkdir(report2.c_str(), 0755);

  // --- set-up: generate the corpus and its truth sidecar. ---
  double generate_s = 0;
  if (!GenerateCorpus(kStudyScale, CorpusSeed(args.seed, 0), corpus, span_log,
                      &generate_s, out)) {
    return;
  }
  auto truth = stir::io::ReadTruthSidecar(stir::io::TruthSidecarPath(corpus));
  if (!out->Check(truth.ok(), "truth sidecar reads")) return;
  const double setup_s = SecondsSince(process_start);

  // --- measured phase: whole cycles of (1-thread study, 2-thread study,
  // inference build + three-strategy evaluation) until time is up. ---
  std::vector<double> t1_s, t2_s, infer_s, traced_t1_s;
  LayerTimes layers;
  std::string first_report;
  stir::core::StudyResult checked;
  std::vector<stir::infer::StrategyEval> evals;
  const stir::infer::InferParams params;
  const Clock::time_point phase_start = Clock::now();
  for (int cycle = 0; cycle < 2 || SecondsSince(phase_start) < args.seconds;
       ++cycle) {
    stir::core::StudyResult r1, r2;
    t1_s.push_back(PlainStudy(corpus, db, 1, report1, &r1, out));
    out->Attempt();
    if (args.trace) {
      traced_t1_s.push_back(
          TracedStudy(corpus, db, 1, report1, span_log, &layers, out));
      TracedStudy(corpus, db, 2, report2, span_log, &layers, out);
    } else {
      t2_s.push_back(PlainStudy(corpus, db, 2, report2, &r2, out));
    }
    out->Attempt();
    std::string bytes1, bytes2;
    ReadFile(report1 + "/report.json", &bytes1);
    ReadFile(report2 + "/report.json", &bytes2);
    out->Check(!bytes1.empty() && bytes1 == bytes2,
               "1-thread and 2-thread reports are byte-identical");
    if (cycle == 0) {
      first_report = bytes1;
      checked = std::move(r1);
    } else {
      out->Check(bytes1 == first_report, "repeated studies agree");
    }

    const Clock::time_point infer_start = Clock::now();
    auto view = stir::io::CorpusView::Open(corpus);
    if (!out->Check(view.ok(), "corpus opens")) return;
    stir::infer::InferenceIndex index;
    layers.Add("infer.index_build_s",
               Timed(span_log, "infer.InferenceIndex::Build", [&] {
                 index = stir::infer::InferenceIndex::Build(*view, db);
               }));
    std::vector<stir::infer::StrategyEval> cycle_evals;
    layers.Add("infer.evaluate_s",
               Timed(span_log, "infer.EvaluateStrategy", [&] {
                 for (int s = 0; s < stir::infer::kNumStrategies; ++s) {
                   cycle_evals.push_back(stir::infer::EvaluateStrategy(
                       index, *truth, static_cast<stir::infer::Strategy>(s),
                       params));
                 }
               }));
    infer_s.push_back(SecondsSince(infer_start));
    out->Attempt();
    if (cycle == 0) evals = cycle_evals;
  }

  // --- correctness, outside the timed phase. ---
  {
    auto view = stir::io::CorpusView::Open(corpus);
    if (out->Check(view.ok(), "corpus opens")) {
      CheckStudy(checked, *view, db, out);
    }
  }
  if (out->Check(evals.size() == 3, "three strategies evaluated")) {
    using stir::infer::Strategy;
    const auto& spatial = evals[static_cast<int>(Strategy::kSpatial)];
    const auto& diurnal = evals[static_cast<int>(Strategy::kDiurnal)];
    out->Check(diurnal.GpsRichAccuracyDistrict() >= kDiurnalFloor,
               "diurnal GPS-rich accuracy@district clears the floor (" +
                   std::to_string(diurnal.GpsRichAccuracyDistrict()) + ")");
    out->Check(diurnal.GpsRichAccuracyDistrict() >
                   spatial.GpsRichAccuracyDistrict(),
               "diurnal beats spatial on GPS-rich users");
  }

  const double users = static_cast<double>(checked.funnel.crawled_users);
  if (!args.trace) {
    out->Metric("setup_s", setup_s, "s");
    out->Metric("op_p50_us", Median(t1_s) * 1e6, "us");
    out->Metric("throughput_per_s", users / Median(t2_s), "1/s");
    out->Metric("build_s", Median(infer_s), "s");
    out->Metric("peak_rss_mb", PeakRssMb(getpid()), "MB");
    return;
  }
  out->Metric("twitter.generate_s", generate_s, "s");
  auto view = stir::io::CorpusView::Open(corpus);
  if (out->Check(view.ok(), "corpus opens")) {
    MicroLayers(*view, db, span_log, out);
  }
  layers.Emit(out);
  out->Metric("trace.overhead_pct",
              100.0 * (Median(traced_t1_s) - Median(t1_s)) / Median(t1_s),
              "%");
  out->Check(spans.WriteChromeJson(args.work + "/trace_study_batch.json"),
             "Chrome trace written");
}

}  // namespace perfbench
