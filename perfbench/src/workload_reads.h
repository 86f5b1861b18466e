// Read traffic shared by serve_read and stream_mixed: the reference the
// answers are checked against (a separate `stir_cli study --report-dir`
// run, district counts re-derived from the corpus columns, the truth
// sidecar), the seeded Zipf request script, and the response checker.

#ifndef PERFBENCH_WORKLOAD_READS_H_
#define PERFBENCH_WORKLOAD_READS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "client.h"
#include "obs/json.h"
#include "util.h"

namespace perfbench {

/// One row of the reference report's users.csv.
struct UserRow {
  int64_t user = 0;
  std::string group;
  int64_t match_rank = 0;
  int64_t gps_tweets = 0;
  int64_t matched_tweets = 0;
  int64_t distinct_locations = 0;
};

/// A district as re-derived from the corpus: the final users with >= 1
/// GPS fix AdminDb::Locate puts in it, and those fixes' count.
struct DistrictRef {
  std::string state;
  std::string county;
  std::vector<int64_t> users;  ///< Ascending.
  int64_t gps_tweets = 0;
};

struct Reference {
  std::vector<UserRow> users;  ///< Final users, report order.
  std::unordered_map<int64_t, size_t> row_of;
  stir::obs::JsonValue report;  ///< report.json.
  std::vector<DistrictRef> districts;  ///< Most users first.
  /// Truth home "State/County" of each final user.
  std::unordered_map<int64_t, std::string> home;
};

/// True when a topk_summary result carries the same group table, final
/// users, mean locations and funnel counts as a study's report.json.
bool TopkMatchesReport(const stir::obs::JsonValue& result,
                       const stir::obs::JsonValue& report);

/// Runs the reference study in a separate stir_cli process and derives
/// the district table and truth map from the corpus files.
bool LoadReference(const Args& args, const std::string& corpus,
                   const std::string& report_dir, Reference* ref,
                   Result* out);

enum ReadKind { kLookupUser = 0, kInferUser, kLookupDistrict, kTopk };
inline constexpr int kNumReadKinds = 4;
inline constexpr const char* kReadKindNames[kNumReadKinds] = {
    "lookup_user", "infer_user", "lookup_district", "topk_summary"};

/// Request shares by ReadKind.
struct ReadMix {
  double share[kNumReadKinds];
};
/// serve_read: point reads dominate, some paged district reads, an
/// occasional summary.
inline constexpr ReadMix kReadMixServe = {{0.45, 0.40, 0.12, 0.03}};
/// stream_mixed: reads of base users only, whose answers appends of new
/// users must leave unchanged.
inline constexpr ReadMix kReadMixStream = {{0.55, 0.45, 0.0, 0.0}};
/// Zipf exponent over final users (and over districts by popularity).
inline constexpr double kZipfExponent = 1.1;
/// lookup_district page size.
inline constexpr int64_t kDistrictPage = 20;

/// A seeded request sequence over a fixed set of distinct requests
/// ("keys"); request i is key Key(i), sent with id i.
class ReadScript {
 public:
  struct KeyInfo {
    ReadKind kind = kLookupUser;
    int64_t user = 0;
    size_t district = 0;
    int64_t offset = 0;
    std::string rest;  ///< Request line after the id.
  };
  std::string Line(int64_t i) const;
  int Key(int64_t i) const {
    return entries_[static_cast<size_t>(i) % entries_.size()];
  }
  const std::vector<KeyInfo>& keys() const { return keys_; }
  size_t size() const { return entries_.size(); }

 private:
  friend ReadScript BuildReadScript(const Reference&, uint64_t,
                                    const ReadMix&);
  std::vector<KeyInfo> keys_;
  std::vector<int> entries_;
};

ReadScript BuildReadScript(const Reference& ref, uint64_t seed,
                           const ReadMix& mix);

/// Checks responses as they arrive (one per request, matching id, the
/// same bytes for every repeat of a key) and, afterwards, the first
/// answer of every key against the reference.
class ReadChecker {
 public:
  explicit ReadChecker(const ReadScript* script)
      : script_(script), bodies_(script->keys().size()) {}
  void Observe(const Response& r, Result* out);
  void Verify(const Reference& ref, double infer_floor, Result* out) const;
  int64_t responses() const { return responses_; }

 private:
  const ReadScript* script_;
  std::vector<std::string> bodies_;
  int64_t responses_ = 0;
  int64_t bad_ids_ = 0;
  int64_t changed_ = 0;
  std::unordered_map<std::string, int64_t> errors_;
};

/// The server's --metrics-out snapshot.
class ServerMetrics {
 public:
  bool Load(const std::string& path);
  /// Counter value; -1 when absent.
  int64_t Counter(const std::string& name) const;
  /// Bucket-bound quantile of a histogram (HistogramQuantile); -1 when
  /// absent.
  double HistogramQuantile(const std::string& name, double q) const;
  /// sum / count of a histogram; -1 when absent or empty.
  double HistogramMean(const std::string& name) const;

 private:
  const stir::obs::JsonValue* Histogram(const std::string& name) const;
  stir::obs::JsonValue doc_;
};

/// Times ParseRequest and ExecuteOnIndex / ExecuteInferUser over the
/// script in process, on indexes built from the same corpus (reporting
/// serve.parse_ns, serve.execute_ns.<method>, and the two index builds).
/// Returns the mean in-process service time per request in ns.
double InProcessServiceTimes(const std::string& corpus,
                             const ReadScript& script, SpanLog* spans,
                             Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_READS_H_
