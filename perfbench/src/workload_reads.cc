#include "workload_reads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>

#include "core/study.h"
#include "geo/admin_db.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "io/corpus.h"
#include "io/truth_sidecar.h"
#include "serve/protocol.h"
#include "serve/study_index.h"
#include "workload_common.h"

namespace perfbench {

using stir::obs::JsonValue;

namespace {

bool ParseJson(const std::string& text, JsonValue* value) {
  return stir::obs::JsonParse(text, value);
}

int64_t IntOf(const JsonValue* v) { return v != nullptr ? v->integer : -1; }
std::string StrOf(const JsonValue* v) {
  return v != nullptr ? v->string : std::string();
}

/// Seeded 64-bit generator (splitmix64), identical on every platform.
struct SplitMix {
  uint64_t state;
  uint64_t operator()() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }
};

}  // namespace

bool TopkMatchesReport(const JsonValue& result, const JsonValue& report) {
  // topk_summary renders numbers with the report's own formatting, so
  // every comparison is exact.
  auto same_num = [](const JsonValue* a, const JsonValue* b) {
    return a != nullptr && b != nullptr && a->number == b->number;
  };
  const JsonValue* have = result.Find("groups");
  const JsonValue* want = report.Find("groups");
  bool same = have != nullptr && want != nullptr &&
              have->elements.size() == want->elements.size() &&
              same_num(result.Find("final_users"),
                       report.Find("final_users")) &&
              same_num(result.Find("overall_avg_locations"),
                       report.Find("overall_avg_locations"));
  for (size_t g = 0; same && g < want->elements.size(); ++g) {
    const JsonValue& a = have->elements[g];
    const JsonValue& b = want->elements[g];
    same = StrOf(a.Find("group")) == StrOf(b.Find("group"));
    for (const char* field : {"users", "user_share", "gps_tweets",
                              "tweet_share", "avg_tweet_locations"}) {
      same = same && same_num(a.Find(field), b.Find(field));
    }
  }
  const JsonValue* f1 = result.Find("funnel");
  const JsonValue* f2 = report.Find("funnel");
  same = same && f1 != nullptr && f2 != nullptr &&
         same_num(f1->Find("well_defined_users"),
                  f2->Find("well_defined_profiles"));
  for (const char* field :
       {"crawled_users", "gps_tweets", "geocode_failures", "final_users"}) {
    same = same && same_num(f1->Find(field), f2->Find(field));
  }
  return same;
}

bool LoadReference(const Args& args, const std::string& corpus,
                   const std::string& report_dir, Reference* ref,
                   Result* out) {
  mkdir(report_dir.c_str(), 0755);
  if (!out->Check(RunToCompletion({args.cli, "study", "--corpus", corpus,
                                   "--report-dir", report_dir},
                                  "", 120.0),
                  "reference stir_cli study runs")) {
    return false;
  }
  std::string csv;
  std::string report;
  if (!out->Check(ReadFile(report_dir + "/users.csv", &csv) &&
                      ReadFile(report_dir + "/report.json", &report) &&
                      ParseJson(report, &ref->report),
                  "reference report reads")) {
    return false;
  }
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string f[6];
    for (std::string& field : f) std::getline(fields, field, ',');
    UserRow row{std::atoll(f[0].c_str()), f[1],
                std::atoll(f[2].c_str()), std::atoll(f[3].c_str()),
                std::atoll(f[4].c_str()), std::atoll(f[5].c_str())};
    ref->row_of[row.user] = ref->users.size();
    ref->users.push_back(row);
  }
  if (!out->Check(!ref->users.empty(), "reference has final users")) {
    return false;
  }

  // Districts: every GPS fix of a final user, located independently.
  auto view = stir::io::CorpusView::Open(corpus);
  if (!out->Check(view.ok(), "corpus opens")) return false;
  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();
  std::map<stir::geo::RegionId, DistrictRef> by_region;
  int64_t located_gps = 0;
  for (size_t row = 0; row < view->user_count(); ++row) {
    const int64_t user = view->user_id(row);
    if (ref->row_of.count(user) == 0) continue;
    std::map<stir::geo::RegionId, int64_t> counts;
    for (uint64_t pos = view->user_tweet_begin(row);
         pos < view->user_tweet_end(row); ++pos) {
      const size_t tweet = view->user_tweet_row(pos);
      if (!view->tweet_has_gps(tweet)) continue;
      auto region = db.Locate(view->tweet_gps(tweet));
      if (region.ok()) ++counts[*region];
    }
    for (const auto& [region, count] : counts) {
      DistrictRef& d = by_region[region];
      d.state = db.region(region).state;
      d.county = db.region(region).county;
      d.users.push_back(user);
      d.gps_tweets += count;
      located_gps += count;
    }
  }
  for (auto& [region, d] : by_region) {
    std::sort(d.users.begin(), d.users.end());
    ref->districts.push_back(std::move(d));
  }
  std::stable_sort(ref->districts.begin(), ref->districts.end(),
                   [](const DistrictRef& a, const DistrictRef& b) {
                     return a.users.size() > b.users.size();
                   });
  int64_t report_gps = 0;
  for (const UserRow& row : ref->users) report_gps += row.gps_tweets;
  out->Check(report_gps == located_gps,
             "report GPS tweets equal the located fixes of final users");

  auto truth = stir::io::ReadTruthSidecar(stir::io::TruthSidecarPath(corpus));
  if (!out->Check(truth.ok(), "truth sidecar reads")) return false;
  for (const stir::io::TruthRecord& record : *truth) {
    if (ref->row_of.count(record.user) != 0) {
      ref->home[record.user] = record.home_state + "/" + record.home_county;
    }
  }
  return true;
}

std::string ReadScript::Line(int64_t i) const {
  return "{\"v\":1,\"id\":" + std::to_string(i) + "," + keys_[Key(i)].rest;
}

ReadScript BuildReadScript(const Reference& ref, uint64_t seed,
                           const ReadMix& mix) {
  constexpr size_t kScriptLength = 1 << 17;
  SplitMix rng{seed};
  // Zipf rank -> user through a seeded permutation, so the heavy users
  // are not simply the smallest ids.
  std::vector<int64_t> users;
  for (const UserRow& row : ref.users) users.push_back(row.user);
  for (size_t i = users.size(); i > 1; --i) {
    std::swap(users[i - 1], users[rng() % i]);
  }
  const Zipf user_zipf(users.size(), kZipfExponent);
  const Zipf district_zipf(std::max<size_t>(1, ref.districts.size()),
                           kZipfExponent);
  ReadScript script;
  std::map<std::tuple<int, int64_t, size_t, int64_t>, int> key_of;
  auto key = [&](ReadScript::KeyInfo info) {
    const auto id = std::make_tuple(static_cast<int>(info.kind), info.user,
                                    info.district, info.offset);
    auto it = key_of.find(id);
    if (it != key_of.end()) return it->second;
    const int k = static_cast<int>(script.keys_.size());
    script.keys_.push_back(std::move(info));
    key_of.emplace(id, k);
    return k;
  };
  script.entries_.reserve(kScriptLength);
  for (size_t i = 0; i < kScriptLength; ++i) {
    double u = rng.Uniform();
    int kind = 0;
    while (kind + 1 < kNumReadKinds && u >= mix.share[kind]) {
      u -= mix.share[kind];
      ++kind;
    }
    ReadScript::KeyInfo info;
    info.kind = static_cast<ReadKind>(kind);
    switch (info.kind) {
      case kLookupUser:
      case kInferUser:
        info.user = users[user_zipf.Sample(rng.Uniform())];
        info.rest = std::string("\"method\":\"") + kReadKindNames[kind] +
                    "\",\"params\":{\"user\":" + std::to_string(info.user) +
                    "}}";
        break;
      case kLookupDistrict: {
        info.district = district_zipf.Sample(rng.Uniform());
        const DistrictRef& d = ref.districts[info.district];
        const int64_t pages =
            (static_cast<int64_t>(d.users.size()) + kDistrictPage - 1) /
            kDistrictPage;
        info.offset =
            static_cast<int64_t>(rng() % static_cast<uint64_t>(pages)) *
            kDistrictPage;
        info.rest = "\"method\":\"lookup_district\",\"params\":{\"state\":\"" +
                    stir::obs::JsonEscape(d.state) + "\",\"county\":\"" +
                    stir::obs::JsonEscape(d.county) +
                    "\",\"limit\":" + std::to_string(kDistrictPage) +
                    ",\"offset\":" + std::to_string(info.offset) + "}}";
        break;
      }
      case kTopk:
        info.rest = "\"method\":\"topk_summary\"}";
        break;
    }
    script.entries_.push_back(key(std::move(info)));
  }
  return script;
}

void ReadChecker::Observe(const Response& r, Result* out) {
  ++responses_;
  if (!r.id_ok) ++bad_ids_;
  const ReadScript::KeyInfo& info = script_->keys()[r.tag];
  const bool abstained = info.kind == kInferUser && r.error == "low_confidence";
  if (!r.ok && !abstained) {
    out->Fail();
    ++errors_[std::string(r.error)];
    return;
  }
  std::string& body = bodies_[r.tag];
  if (body.empty()) {
    body.assign(r.body);
  } else if (body != r.body) {
    ++changed_;
  }
}

void ReadChecker::Verify(const Reference& ref, double infer_floor,
                         Result* out) const {
  out->Check(bad_ids_ == 0, "every response carries its request's id (" +
                                std::to_string(bad_ids_) + " do not)");
  out->Check(changed_ == 0, "repeated requests get identical answers (" +
                                std::to_string(changed_) + " differ)");
  for (const auto& [code, count] : errors_) {
    std::fprintf(stderr, "perfbench: %lld requests failed with %s\n",
                 static_cast<long long>(count), code.c_str());
  }
  int64_t user_mismatch = 0, district_mismatch = 0, topk_mismatch = 0;
  int64_t decided = 0, correct = 0, unparsed = 0;
  for (size_t k = 0; k < bodies_.size(); ++k) {
    if (bodies_[k].empty()) continue;
    JsonValue doc;
    if (!ParseJson("{\"id\":0" + bodies_[k], &doc)) {
      ++unparsed;
      continue;
    }
    const JsonValue* result = doc.Find("result");
    const ReadScript::KeyInfo& info = script_->keys()[k];
    if (result == nullptr) continue;  // low_confidence
    switch (info.kind) {
      case kLookupUser: {
        const UserRow& row = ref.users[ref.row_of.at(info.user)];
        const JsonValue* locations = result->Find("locations");
        if (StrOf(result->Find("group")) != row.group ||
            IntOf(result->Find("match_rank")) != row.match_rank ||
            IntOf(result->Find("gps_tweets")) != row.gps_tweets ||
            IntOf(result->Find("matched_tweets")) != row.matched_tweets ||
            locations == nullptr ||
            static_cast<int64_t>(locations->elements.size()) !=
                row.distinct_locations) {
          ++user_mismatch;
        }
        break;
      }
      case kInferUser: {
        ++decided;
        const std::string predicted = StrOf(result->Find("state")) + "/" +
                                      StrOf(result->Find("county"));
        const auto it = ref.home.find(info.user);
        correct += it != ref.home.end() && it->second == predicted;
        break;
      }
      case kLookupDistrict: {
        const DistrictRef& d = ref.districts[info.district];
        const JsonValue* ids = result->Find("user_ids");
        std::vector<int64_t> page;
        for (size_t i = static_cast<size_t>(info.offset);
             i < d.users.size() &&
             i < static_cast<size_t>(info.offset + kDistrictPage);
             ++i) {
          page.push_back(d.users[i]);
        }
        std::vector<int64_t> got;
        if (ids != nullptr) {
          for (const JsonValue& id : ids->elements) got.push_back(id.integer);
        }
        if (IntOf(result->Find("users")) !=
                static_cast<int64_t>(d.users.size()) ||
            IntOf(result->Find("gps_tweets")) != d.gps_tweets || got != page) {
          ++district_mismatch;
        }
        break;
      }
      case kTopk:
        topk_mismatch += !TopkMatchesReport(*result, ref.report);
        break;
    }
  }
  out->Check(unparsed == 0, "every answer is valid JSON");
  out->Check(user_mismatch == 0,
             "lookup_user answers equal the reference report (" +
                 std::to_string(user_mismatch) + " differ)");
  out->Check(district_mismatch == 0,
             "lookup_district answers equal the re-derived counts (" +
                 std::to_string(district_mismatch) + " differ)");
  out->Check(topk_mismatch == 0,
             "topk_summary equals the reference report");
  if (decided > 0) {
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(decided);
    out->Check(accuracy >= infer_floor,
               "decided infer_user answers clear the accuracy floor (" +
                   std::to_string(accuracy) + ")");
  }
}

bool ServerMetrics::Load(const std::string& path) {
  std::string text;
  return ReadFile(path, &text) && ParseJson(text, &doc_);
}

int64_t ServerMetrics::Counter(const std::string& name) const {
  const JsonValue* counters = doc_.Find("counters");
  const JsonValue* v = counters != nullptr ? counters->Find(name) : nullptr;
  return v != nullptr ? v->integer : -1;
}

const JsonValue* ServerMetrics::Histogram(const std::string& name) const {
  const JsonValue* histograms = doc_.Find("histograms");
  return histograms != nullptr ? histograms->Find(name) : nullptr;
}

double ServerMetrics::HistogramQuantile(const std::string& name,
                                        double q) const {
  const JsonValue* h = Histogram(name);
  if (h == nullptr) return -1;
  auto ints = [](const JsonValue* array) {
    std::vector<int64_t> values;
    if (array != nullptr) {
      for (const JsonValue& v : array->elements) values.push_back(v.integer);
    }
    return values;
  };
  return perfbench::HistogramQuantile(ints(h->Find("bounds")),
                                      ints(h->Find("counts")), q);
}

double ServerMetrics::HistogramMean(const std::string& name) const {
  const JsonValue* h = Histogram(name);
  const int64_t count = h != nullptr ? IntOf(h->Find("count")) : 0;
  if (count <= 0) return -1;
  return static_cast<double>(IntOf(h->Find("sum"))) /
         static_cast<double>(count);
}

double InProcessServiceTimes(const std::string& corpus,
                             const ReadScript& script, SpanLog* spans,
                             Result* out) {
  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();
  auto view = stir::io::CorpusView::Open(corpus);
  if (!out->Check(view.ok(), "corpus opens")) return 0;
  stir::core::CorrelationStudy study(&db);
  const stir::core::StudyResult result = study.Run(*view);
  stir::serve::StudyIndex index;
  out->Metric("serve.study_index_build_s",
              Timed(spans, "serve.StudyIndex::Build",
                    [&] {
                      index = stir::serve::StudyIndex::Build(result, db);
                    }),
              "s");
  stir::infer::InferenceIndex infer_index;
  out->Metric("infer.index_build_s",
              Timed(spans, "infer.InferenceIndex::Build", [&] {
                infer_index = stir::infer::InferenceIndex::Build(*view, db);
              }),
              "s");

  constexpr int64_t kRequests = 1 << 15;
  std::vector<stir::serve::Request> requests;
  std::vector<std::string> lines;
  for (int64_t i = 0; i < kRequests; ++i) lines.push_back(script.Line(i));
  requests.reserve(lines.size());
  const double parse_s = Timed(spans, "serve.ParseRequest", [&] {
    for (const std::string& line : lines) {
      requests.push_back(stir::serve::ParseRequest(line, 65536).request);
    }
  });
  out->Metric("serve.parse_ns", parse_s * 1e9 / kRequests, "ns");
  const stir::infer::InferParams params;
  double execute_s = 0;
  for (int kind = 0; kind < kNumReadKinds; ++kind) {
    int64_t count = 0;
    size_t bytes = 0;
    const double s = Timed(
        spans, std::string("serve.execute.") + kReadKindNames[kind], [&] {
          for (int64_t i = 0; i < kRequests; ++i) {
            if (script.keys()[script.Key(i)].kind != kind) continue;
            ++count;
            bytes += kind == kInferUser
                         ? stir::serve::ExecuteInferUser(
                               &infer_index, params, requests[i])
                               .size()
                         : stir::serve::ExecuteOnIndex(index, requests[i])
                               .size();
          }
        });
    execute_s += s;
    if (count > 0) {
      out->Metric(std::string("serve.execute_ns.") + kReadKindNames[kind],
                  s * 1e9 / static_cast<double>(count), "ns");
    }
    out->Check(count == 0 || bytes > 0, "in-process answers are rendered");
  }
  return (parse_s + execute_s) * 1e9 / kRequests;
}

}  // namespace perfbench
