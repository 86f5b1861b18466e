// Pieces the three workloads share: seeded corpus generation, per-layer
// sample collection, the fixed metric lists, and server start-up.

#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

/// Generator seed of corpus `k` of a run with benchmark seed `seed`.
uint64_t CorpusSeed(uint64_t seed, int k);

/// Generates a Korean-preset arena corpus at `scale` (night-home bias
/// 0.65, so diurnal inference has a signal) with its truth sidecar, in
/// process through DatasetGenerator::GenerateToCorpus.
bool GenerateCorpus(double scale, uint64_t seed, const std::string& path,
                    SpanLog* spans, double* seconds, Result* out);

/// Unit of a per-layer metric ("" for a name outside the list).
const char* PerLayerUnit(const std::string& name);

/// Samples of per-layer timings; Emit reports each name's median.
class LayerTimes {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Emit(Result* out) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Fills in, with 0, every per-layer metric the workload did not drive,
/// so each traced run reports the full list (BENCHMARK.json per_layer).
void CompletePerLayer(Result* out);

/// Starts `argv --stdio` on empty input, waits for its ready line and its
/// exit, and returns the launch-to-ready seconds, or a negative value on
/// failure.
double TimeServerStart(const std::vector<std::string>& argv, Result* out);

/// Starts `argv --port 0` and leaves it running on TCP; `port` receives
/// the port. Returns the launch-to-ready seconds, or a negative value on
/// failure.
double LaunchServer(const std::vector<std::string>& argv, Child* server,
                    uint16_t* port, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_
