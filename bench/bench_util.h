#ifndef STIR_BENCH_BENCH_UTIL_H_
#define STIR_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper and prints paper-reported
// values (where legible in the source text) next to measured ones, with a
// PASS/CHECK verdict on the qualitative shape.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/study.h"
#include "geo/admin_db.h"
#include "io/corpus_reader.h"
#include "obs/json.h"
#include "twitter/generator.h"

namespace stir::bench {

/// High-water-mark resident set of this process in bytes (ru_maxrss is
/// kilobytes on Linux). The out-of-core acceptance gate compares this
/// against the on-disk corpus size.
inline int64_t CurrentPeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

/// Scale for dataset generation: 1.0 = the paper's 52,200-user crawl.
/// Benches default to full scale (about a second of generation) and
/// accept an override as argv[1].
inline double ScaleFromArgs(int argc, char** argv, double fallback = 1.0) {
  if (argc > 1) {
    double scale = std::atof(argv[1]);
    if (scale > 0.0) return scale;
  }
  return fallback;
}

/// The arena view of a generated dataset (io::ArenaFromDataset, the
/// conversion the corpus reader applies to TSV input); exits on failure.
inline io::CorpusView ArenaOf(const twitter::Dataset& dataset) {
  StatusOr<io::CorpusView> view = io::ArenaFromDataset(dataset);
  if (!view.ok()) {
    std::fprintf(stderr, "arena conversion failed: %s\n",
                 view.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(view).value();
}

struct StudyRun {
  twitter::GeneratedData data;
  core::StudyResult result;
};

/// Generates the Korean-preset corpus and runs the full study.
inline StudyRun RunKoreanStudy(double scale) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(scale));
  StudyRun run{generator.Generate(), {}};
  core::CorrelationStudy study(&db);
  run.result = study.Run(ArenaOf(run.data.dataset));
  return run;
}

/// Generates the Lady-Gaga-preset corpus (world gazetteer) and runs the
/// study.
inline StudyRun RunLadyGagaStudy(double scale) {
  const geo::AdminDb& db = geo::AdminDb::WorldCities();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::LadyGagaConfig(scale));
  StudyRun run{generator.Generate(), {}};
  core::CorrelationStudy study(&db);
  run.result = study.Run(ArenaOf(run.data.dataset));
  return run;
}

/// One PASS/CHECK line for a shape assertion.
inline bool Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "CHECK", what);
  return ok;
}

/// One measured configuration for the machine-readable `--json` output
/// shared by the load benches: name, iteration count, and nanoseconds per
/// operation, plus free-form numeric extras (latency quantiles and the
/// like).
struct BenchJsonEntry {
  std::string name;
  int64_t iterations = 0;
  double ns_per_op = 0.0;
  std::vector<std::pair<std::string, double>> extra;
  /// Accuracy-style ratios (written as a nested `"accuracy"` object with
  /// 4-decimal precision, so quality gates live in the same snapshot as
  /// the latency numbers — BENCH_infer.json pairs p99 with
  /// accuracy@district this way).
  std::vector<std::pair<std::string, double>> accuracy;
};

/// Writes `{"benchmarks":[{"name":...,"iterations":...,"ns_per_op":...,
/// "accuracy":{...}?}],
/// "process":{"peak_rss_bytes":...,"mapped_bytes_peak":...}}` to `path`.
/// `mapped_bytes_peak` is the caller's high-water mark of mmapped corpus
/// bytes (CorpusView::bytes_mapped; 0 for benches that never map one).
/// Returns false (with a message on stderr) when the file cannot be
/// written.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<BenchJsonEntry>& entries,
                           int64_t mapped_bytes_peak = 0) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("benchmarks");
  w.BeginArray();
  for (const BenchJsonEntry& entry : entries) {
    w.BeginObject();
    w.Key("name");
    w.String(entry.name);
    w.Key("iterations");
    w.Int(entry.iterations);
    w.Key("ns_per_op");
    w.FixedDouble(entry.ns_per_op, 1);
    for (const auto& [key, value] : entry.extra) {
      w.Key(key);
      w.FixedDouble(value, 3);
    }
    if (!entry.accuracy.empty()) {
      w.Key("accuracy");
      w.BeginObject();
      for (const auto& [key, value] : entry.accuracy) {
        w.Key(key);
        w.FixedDouble(value, 4);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("process");
  w.BeginObject();
  w.Key("peak_rss_bytes");
  w.Int(CurrentPeakRssBytes());
  w.Key("mapped_bytes_peak");
  w.Int(mapped_bytes_peak);
  w.EndObject();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("==============================================================\n");
}

}  // namespace stir::bench

#endif  // STIR_BENCH_BENCH_UTIL_H_
