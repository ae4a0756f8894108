#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "pareto/metrics.hpp"
#include "sched/bounds.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string number_text(double value) {
  if (!std::isfinite(value)) return "-1";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::absent(const std::string& name, const std::string& unit) {
  metrics_[name] = Metric{-1.0, unit};
  absent_.push_back(name);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "CHECK FAILED: " << what << std::endl;
  }
  return ok;
}

void Report::add_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                  attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number_text(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  return out;
}

void Report::print_summary() const {
  for (const std::string& line : notes_) std::cout << line << '\n';
  for (const auto& [name, m] : metrics_) {
    std::cout << "  " << name << " = " << number_text(m.value) << ' '
              << m.unit << '\n';
  }
  if (!absent_.empty()) {
    std::cout << "absent:";
    for (const std::string& name : absent_) std::cout << ' ' << name;
    std::cout << '\n';
  }
  const double ratio = attempted_ == 0
                           ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  std::cout << "  fail_ratio = " << number_text(ratio) << " (" << failed_
            << " of " << attempted_ << " operations)" << std::endl;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double trimmed_mean(std::vector<double> values) {
  if (values.size() < 4) return mean(values);
  std::sort(values.begin(), values.end());
  return mean(std::vector<double>(values.begin() + 1, values.end() - 1));
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void scrub_eus_environment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("EUS_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

HvFrame hv_frame(const eus::Scenario& scenario) {
  const eus::ObjectiveBounds bounds =
      eus::compute_bounds(scenario.system, scenario.trace);
  HvFrame frame;
  frame.energy_lower = bounds.energy_lower;
  frame.energy_ref = kEnergyRefFactor * bounds.energy_lower;
  frame.utility_upper = bounds.utility_upper_contention_free;
  return frame;
}

double normalized_hv(const std::vector<eus::EUPoint>& front,
                     const HvFrame& frame) {
  std::vector<eus::EUPoint> inside;
  for (const eus::EUPoint& p : front) {
    if (p.energy <= frame.energy_ref && p.utility >= 0.0) inside.push_back(p);
  }
  const double box = (frame.energy_ref - frame.energy_lower) *
                     frame.utility_upper;
  if (inside.empty() || box <= 0.0) return 0.0;
  return eus::hypervolume(inside, eus::EUPoint{frame.energy_ref, 0.0}) / box;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31U);
}

}  // namespace perfbench
