// eus_bench — the unified benchmark runner.  Every bench/bench_*.cpp
// registers one scenario (EUS_BENCHMARK); this binary lists, filters and
// runs them with shared warmup/repetition/timing machinery, writes one
// BENCH_results.json, and optionally gates against committed baselines.
//
//   eus_bench --list
//   EUS_SCALE=0.001 eus_bench --filter 'fig' --reps 5
//   eus_bench --compare bench/baselines.json --tolerance-pct 40
//   eus_bench --compare bench/baselines.json --update-baselines
//
// Exit codes: 0 success, 1 baseline regression, 2 usage error,
// 3 scenario failure.  EXPERIMENTS.md documents the JSON schemas.

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "benchkit/compare.hpp"
#include "benchkit/json_value.hpp"
#include "benchkit/registry.hpp"
#include "benchkit/results.hpp"
#include "benchkit/runner.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {

using namespace eus;
using namespace eus::benchkit;

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;
constexpr int kExitScenarioFailure = 3;

struct CliOptions {
  bool list = false;
  bool verbose = false;
  bool update_baselines = false;
  std::string filter;
  std::string out_path = "BENCH_results.json";
  std::optional<std::string> compare_path;
  double tolerance_pct = 25.0;
  std::size_t warmup = 1;
  std::size_t repetitions = 3;
};

void print_usage(std::ostream& out) {
  out << "usage: eus_bench [options]\n"
         "  --list                 print every registered scenario and exit\n"
         "  --filter <regex>       run only scenarios whose name matches\n"
         "  --warmup <n>           untimed runs per scenario (default 1)\n"
         "  --reps <n>             timed repetitions per scenario (default "
         "3)\n"
         "  --out <path>           results file (default BENCH_results.json; "
         "'off' disables)\n"
         "  --compare <path>       gate against a baselines file; exit 1 on "
         "regression\n"
         "  --tolerance-pct <x>    default tolerance band for --compare "
         "(default 25)\n"
         "  --update-baselines     rewrite the --compare file (default "
         "bench/baselines.json)\n"
         "                         from this run instead of gating\n"
         "  --verbose              stream scenario output instead of "
         "swallowing it\n"
         "  -h, --help             this text\n"
         "\n"
         "Scenario workloads honor EUS_SCALE / EUS_SEED / EUS_THREADS /\n"
         "EUS_RUNLOG exactly as the former standalone binaries did.\n";
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opts;
  const auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "eus_bench: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      opts.list = true;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--update-baselines") {
      opts.update_baselines = true;
    } else if (arg == "--filter") {
      const char* v = value_of(i, "--filter");
      if (v == nullptr) return std::nullopt;
      opts.filter = v;
    } else if (arg == "--out") {
      const char* v = value_of(i, "--out");
      if (v == nullptr) return std::nullopt;
      opts.out_path = v;
    } else if (arg == "--compare") {
      const char* v = value_of(i, "--compare");
      if (v == nullptr) return std::nullopt;
      opts.compare_path = v;
    } else if (arg == "--tolerance-pct") {
      const char* v = value_of(i, "--tolerance-pct");
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      opts.tolerance_pct = std::strtod(v, &end);
      if (end == v || *end != '\0' || opts.tolerance_pct < 0.0) {
        std::cerr << "eus_bench: --tolerance-pct wants a non-negative "
                     "number, got '"
                  << v << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--warmup" || arg == "--reps") {
      const char* v = value_of(i, arg.c_str());
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const long long n = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || n < 0) {
        std::cerr << "eus_bench: " << arg
                  << " wants a non-negative integer, got '" << v << "'\n";
        return std::nullopt;
      }
      (arg == "--warmup" ? opts.warmup : opts.repetitions) =
          static_cast<std::size_t>(n);
    } else if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      std::exit(kExitOk);
    } else {
      std::cerr << "eus_bench: unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opts.repetitions == 0) {
    std::cerr << "eus_bench: --reps must be at least 1\n";
    return std::nullopt;
  }
  return opts;
}

std::vector<const Scenario*> select_scenarios(const CliOptions& opts,
                                              bool& pattern_error) {
  pattern_error = false;
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  if (opts.filter.empty()) return registry.all();
  try {
    return registry.matching(opts.filter);
  } catch (const std::regex_error& e) {
    std::cerr << "eus_bench: bad --filter regex '" << opts.filter
              << "': " << e.what() << '\n';
    pattern_error = true;
    return {};
  }
}

void print_list(const std::vector<const Scenario*>& scenarios) {
  AsciiTable table({"scenario", "description"});
  for (const Scenario* s : scenarios) {
    table.add_row({s->name, s->description});
  }
  std::cout << table.render() << scenarios.size() << " scenario"
            << (scenarios.size() == 1 ? "" : "s") << '\n';
}

void print_compare_report(const CompareReport& report,
                          const Baselines& baselines,
                          const MachineInfo& machine) {
  if (!baselines.machine.empty() && baselines.machine != machine.host) {
    std::cout << "note: baselines recorded on '" << baselines.machine
              << "', this run is on '" << machine.host
              << "' — wall-clock bands may not transfer\n";
  }
  AsciiTable table(
      {"scenario", "metric", "baseline", "measured", "delta", "speedup",
       "band", "status"});
  for (const CompareEntry& e : report.entries) {
    const bool has_values = e.status == CompareStatus::kOk ||
                            e.status == CompareStatus::kImproved ||
                            e.status == CompareStatus::kRegression;
    // Every metric is higher-is-worse, so baseline/measured > 1 means this
    // run beat the recorded baseline by that factor.
    const bool has_ratio = has_values && e.measured > 0.0;
    table.add_row(
        {e.scenario, e.metric.empty() ? "-" : e.metric,
         has_values || e.status == CompareStatus::kMissingMetric
             ? format_double(e.baseline, 4)
             : "-",
         has_values ? format_double(e.measured, 4) : "-",
         has_values ? format_double(e.delta_pct, 1) + "%" : "-",
         has_ratio ? format_double(e.baseline / e.measured, 2) + "x" : "-",
         has_values || e.status == CompareStatus::kMissingMetric
             ? "±" + format_double(e.tolerance_pct, 0) + "%"
             : "-",
         to_string(e.status)});
  }
  std::cout << table.render();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parse_args(argc, argv);
  if (!parsed) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  const CliOptions& opts = *parsed;

  bool pattern_error = false;
  const std::vector<const Scenario*> scenarios =
      select_scenarios(opts, pattern_error);
  if (pattern_error) return kExitUsage;

  if (opts.list) {
    print_list(scenarios);
    return kExitOk;
  }
  if (scenarios.empty()) {
    std::cerr << "eus_bench: no scenario matches"
              << (opts.filter.empty() ? "" : " --filter '" + opts.filter + "'")
              << "\n";
    return kExitUsage;
  }

  BenchResults results;
  results.git_sha = discover_git_sha();
  results.machine = local_machine();
  results.config.scale = bench_scale();
  results.config.seed = bench_seed();
  results.config.threads = bench_threads();
  results.config.warmup = opts.warmup;
  results.config.repetitions = opts.repetitions;

  RunOptions run_options;
  run_options.warmup = opts.warmup;
  run_options.repetitions = opts.repetitions;
  run_options.quiet = !opts.verbose;

  bool scenario_failed = false;
  std::size_t index = 0;
  for (const Scenario* scenario : scenarios) {
    ++index;
    std::cout << "[" << index << "/" << scenarios.size() << "] "
              << scenario->name << " ..." << std::flush;
    if (opts.verbose) std::cout << '\n';
    ScenarioResult result = run_scenario(*scenario, run_options);
    if (result.exit_code != 0) {
      scenario_failed = true;
      std::cout << " FAILED (exit " << result.exit_code << ")\n";
    } else {
      const Aggregate wall = result.wall();
      std::cout << " median " << format_double(wall.median, 4) << " s (mad "
                << format_double(wall.mad, 4) << ", " << wall.count
                << " rep" << (wall.count == 1 ? "" : "s") << ", warmup "
                << opts.warmup << ")\n";
    }
    results.scenarios.push_back(std::move(result));
  }

  if (opts.out_path != "off" && opts.out_path != "none") {
    std::ofstream out(opts.out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "eus_bench: cannot write " << opts.out_path << '\n';
      return kExitUsage;
    }
    out << to_json(results) << '\n';
    std::cout << "results: " << opts.out_path << '\n';
  }

  int exit_code = scenario_failed ? kExitScenarioFailure : kExitOk;

  if (opts.update_baselines) {
    const std::string path =
        opts.compare_path.value_or("bench/baselines.json");
    Baselines existing;
    try {
      existing = baselines_from_json(parse_json_file(path));
    } catch (const std::exception&) {
      // First generation: start from an empty set.
    }
    const Baselines updated = update_baselines(existing, results);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "eus_bench: cannot write " << path << '\n';
      return kExitUsage;
    }
    out << to_json(updated) << '\n';
    std::cout << "baselines updated: " << path << " ("
              << updated.scenarios.size() << " scenarios)\n";
  } else if (opts.compare_path) {
    Baselines baselines;
    try {
      baselines = baselines_from_json(parse_json_file(*opts.compare_path));
    } catch (const std::exception& e) {
      std::cerr << "eus_bench: cannot load baselines: " << e.what() << '\n';
      return kExitUsage;
    }
    const CompareReport report =
        compare(results, baselines, opts.tolerance_pct);
    print_compare_report(report, baselines, results.machine);
    if (!report.ok()) {
      std::cout << report.failures()
                << " regression(s) beyond tolerance — failing (rerun with "
                   "--update-baselines after an intentional change)\n";
      if (exit_code == kExitOk) exit_code = kExitRegression;
    } else {
      std::cout << "baseline gate: ok\n";
    }
  }

  return exit_code;
}
