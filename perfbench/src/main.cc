// perfbench: the repo benchmark program. One workload per process:
//
//   perfbench --workload <build_dense|serve_light|serve_heavy|serve_update>
//             --phase prepare|run --seed N --seconds S --trace 0|1 [--smoke]
//             [--inject-wrong] [--work-dir DIR] [--commit SHA]
//
// The prepare phase generates the workload's inputs (and, for the serving
// workloads, the snapshot and the reference answers) in the work
// directory; the run phase, in a fresh process, measures. With --trace 0
// it prints the end-to-end metrics, with --trace 1 the per-layer metrics
// derived from the benchmark's own spans. The last line of stdout is the
// result object; the exit code is nonzero when any operation failed or any
// answer check did not match.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --phase prepare|run "
               "--seed N --seconds S --trace 0|1 [--smoke] [--inject-wrong] "
               "[--work-dir DIR] [--commit SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  // Fixed worker count of the offline build phases, clamped to the machine.
  options.build_threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--inject-wrong") {
      options.inject_wrong = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--phase" && has_value) {
      options.phase = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      options.commit = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0 ||
      (options.phase != "prepare" && options.phase != "run")) {
    return Usage();
  }
  if (options.workload == "build_dense") {
    return perfbench::RunBuildDense(options);
  }
  if (options.workload == "serve_light" || options.workload == "serve_heavy" ||
      options.workload == "serve_update") {
    return perfbench::RunServe(options);
  }
  return Usage();
}
