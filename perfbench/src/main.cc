// perfbench_driver: runs one benchmark workload against the STIR
// libraries and binaries and prints one JSON result line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH --serve PATH --work DIR
//
// The workload inputs are generated from --seed; the program sees only
// the generated corpus files and requests. With --trace 0 the result
// holds the end-to-end metrics, with --trace 1 the per-layer metrics
// (and a Chrome trace plus the program's own metrics files in DIR).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util.h"
#include "workload_common.h"

int main(int argc, char** argv) {
  const perfbench::Clock::time_point process_start = perfbench::Clock::now();
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--serve") {
      args.serve = value;
    } else if (flag == "--work") {
      args.work = value;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0 || args.work.empty() || args.cli.empty() ||
      args.serve.empty()) {
    std::fprintf(stderr, "perfbench_driver: missing or bad arguments\n");
    return 2;
  }
  perfbench::Result result;
  if (args.workload == "study_batch") {
    perfbench::RunStudyBatch(args, process_start, &result);
  } else if (args.workload == "serve_read") {
    perfbench::RunServeRead(args, process_start, &result);
  } else if (args.workload == "stream_mixed") {
    perfbench::RunStreamMixed(args, process_start, &result);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (result.attempted() == 0) {
    std::fprintf(stderr, "perfbench_driver: no operation was attempted\n");
    return 1;
  }
  if (args.trace) perfbench::CompletePerLayer(&result);
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
