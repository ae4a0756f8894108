// eus_perfbench: the repository benchmark's measuring program.
//
//   eus_perfbench --workload <study_ds1|study_ds3|serve_mix|tenant_delta>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --bin-dir <dir with eus_served, eus_router>
//                 --work-dir <scratch dir>
//
// With --trace 0 it measures the workload end to end and reports the
// end-to-end metrics; with --trace 1 it reports the per-layer ledger
// (ledger.hpp).  Human-readable lines come first; the last stdout line is
// one JSON object {correct, attempted, failed, metrics}.  perfbench/run.py
// builds this program and is the benchmark's entry point.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "ledger.hpp"
#include "offline.hpp"
#include "served.hpp"

namespace {

void usage() {
  std::cerr << "usage: eus_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --bin-dir <dir> --work-dir <dir>\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::scrub_eus_environment();
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!perfbench::is_study_workload(options.workload) &&
      !perfbench::is_served_workload(options.workload)) {
    std::cerr << "eus_perfbench: unknown workload '" << options.workload
              << "'\n";
    usage();
    return 2;
  }

  perfbench::Report report;
  try {
    if (options.trace) {
      perfbench::run_ledger(options, report);
    } else if (perfbench::is_study_workload(options.workload)) {
      perfbench::run_study_workload(options, report);
    } else {
      perfbench::run_served_workload(options, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "eus_perfbench: " << e.what() << '\n';
    return 1;
  }
  report.print_summary();
  std::cout << report.json() << std::endl;
  return 0;
}
