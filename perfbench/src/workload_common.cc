#include "workload_common.h"

#include <cstdio>
#include <cstdlib>

#include "geo/admin_db.h"
#include "io/corpus.h"
#include "io/truth_sidecar.h"
#include "twitter/generator.h"

namespace perfbench {

uint64_t CorpusSeed(uint64_t seed, int k) {
  // splitmix64 of (seed, k): distinct, well-spread generator seeds.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(k) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

bool GenerateCorpus(double scale, uint64_t seed, const std::string& path,
                    SpanLog* spans, double* seconds, Result* out) {
  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();
  stir::twitter::DatasetGeneratorOptions options =
      stir::twitter::DatasetGenerator::KoreanConfig(scale);
  options.seed = seed;
  options.mobility.night_home_bias = 0.65;
  stir::twitter::DatasetGenerator generator(&db, options);
  stir::io::CorpusWriterOptions writer_options;
  writer_options.fsync = false;
  bool ok = false;
  *seconds = Timed(spans, "twitter.GenerateToCorpus", [&] {
    stir::io::CorpusWriter writer(path, writer_options);
    stir::io::TruthSidecarWriter truth(stir::io::TruthSidecarPath(path),
                                       /*fsync=*/false);
    auto info = generator.GenerateToCorpus(&writer, &truth);
    ok = info.ok() && writer.Finish().ok() && truth.Finish().ok();
  });
  return out->Check(ok, "corpus generated: " + path);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerMetric kPerLayer[] = {
    {"twitter.generate_s", "s"},
    {"io.open_verify_s", "s"},
    {"text.profile_parse_ns", "ns"},
    {"geo.reverse_ns", "ns"},
    {"geo.locate_ns", "ns"},
    {"geo.cache_hit_ratio", "ratio"},
    {"core.refine_s", "s"},
    {"core.refine_t2_s", "s"},
    {"core.group_s", "s"},
    {"core.aggregate_s", "s"},
    {"core.report_s", "s"},
    {"text.tweet_match_ns", "ns"},
    {"infer.index_build_s", "s"},
    {"infer.evaluate_s", "s"},
    {"serve.study_index_build_s", "s"},
    {"serve.parse_ns", "ns"},
    {"serve.execute_ns.lookup_user", "ns"},
    {"serve.execute_ns.lookup_district", "ns"},
    {"serve.execute_ns.topk_summary", "ns"},
    {"serve.execute_ns.infer_user", "ns"},
    {"serve.server_latency_p50_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"net.overhead_us", "us"},
    {"serve.cpu_us_per_request", "us"},
    {"serve.rtt_p99_us", "us"},
    {"loadgen.late_p99_us", "us"},
    {"stream.append_seal_p50_ms", "ms"},
    {"stream.append_noseal_p50_us", "us"},
    {"stream.seal_mean_us", "us"},
    {"stream.swap_p50_us", "us"},
    {"stream.seals", "count"},
    {"stream.cpu_us_per_tweet", "us"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

const char* PerLayerUnit(const std::string& name) {
  for (const LayerMetric& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return "";
}

void LayerTimes::Emit(Result* out) const {
  for (const auto& [name, values] : samples_) {
    out->Metric(name, Median(values), PerLayerUnit(name));
  }
}

void CompletePerLayer(Result* out) {
  for (const LayerMetric& m : kPerLayer) {
    if (!out->HasMetric(m.name)) out->Metric(m.name, 0.0, m.unit);
  }
}

double TimeServerStart(const std::vector<std::string>& argv, Result* out) {
  std::vector<std::string> full = argv;
  full.push_back("--stdio");
  Child child;
  const Clock::time_point start = Clock::now();
  if (!out->Check(child.Start(full), "stir_serve starts") ||
      !out->Check(child.WaitForLine("index ready", 120.0),
                  "stir_serve reports ready:\n" + child.log())) {
    return -1;
  }
  const double ready_s = SecondsSince(start);
  if (!out->Check(child.Wait(60.0) == 0, "stir_serve --stdio exits cleanly")) {
    return -1;
  }
  return ready_s;
}

double LaunchServer(const std::vector<std::string>& argv, Child* server,
                    uint16_t* port, Result* out) {
  std::vector<std::string> full = argv;
  full.insert(full.end(), {"--port", "0"});
  const Clock::time_point start = Clock::now();
  if (!out->Check(server->Start(full), "stir_serve starts") ||
      !out->Check(server->WaitForLine("index ready", 120.0),
                  "stir_serve reports ready:\n" + server->log())) {
    return -1;
  }
  const double ready_s = SecondsSince(start);
  std::string line;
  if (!out->Check(server->WaitForLine("listening on 127.0.0.1:", 30.0, &line),
                  "stir_serve listens")) {
    return -1;
  }
  *port = static_cast<uint16_t>(
      std::atoi(line.substr(line.rfind(':') + 1).c_str()));
  return ready_s;
}

}  // namespace perfbench
