// mcx_perf: the program behind the repository benchmark.
//
//   mcx_perf --workload <mc-paper|mc-cliff|sat-exact> --seed N
//            --seconds S --trace <0|1> [--out-dir DIR]
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed, metrics (end-to-end ones untraced, per-layer ones traced) and the
// pinned reference counts, which perfbench/run.py checks.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::cerr << "usage: mcx_perf --workload <mc-paper|mc-cliff|sat-exact> --seed N "
               "--seconds S --trace <0|1> [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value.c_str());
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--out-dir") options.outDir = value;
    else return usage();
  }
  if (argc % 2 != 1 || options.workload.empty() || !(options.seconds > 0)) return usage();

  perf::Report report;
  try {
    if (options.workload == "mc-paper" || options.workload == "mc-cliff" ||
        options.workload == "sat-exact")
      perf::runMcWorkload(options, report);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "mcx_perf: " << e.what() << "\n";
    return 1;
  }
  report.print(std::cout);
  return 0;
}
