#include "telemetry/run_recorder.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace eus {

namespace {

std::string front_array(const std::vector<EUPoint>& front) {
  std::string out = "[";
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (i != 0) out += ',';
    out += '[';
    out += json_number(front[i].energy);
    out += ',';
    out += json_number(front[i].utility);
    out += ']';
  }
  out += ']';
  return out;
}

template <typename Range, typename Fn>
std::string json_array(const Range& range, Fn&& render) {
  std::string out = "[";
  bool first = true;
  for (const auto& item : range) {
    if (!first) out += ',';
    first = false;
    out += render(item);
  }
  out += ']';
  return out;
}

}  // namespace

RunRecorder::RunRecorder(std::ostream& out) : out_(&out) {}

RunRecorder::RunRecorder(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      out_(owned_.get()) {
  if (!*owned_) {
    throw std::runtime_error("RunRecorder: cannot open " + path);
  }
}

RunRecorder::~RunRecorder() = default;

void RunRecorder::write_line(const std::string& json) {
  const std::lock_guard lock(mutex_);
  *out_ << json << '\n';
  out_->flush();
  ++lines_;
}

void RunRecorder::record_config(const RunInfo& info) {
  JsonObject o;
  o.field("type", "config")
      .field("study", info.study)
      .field("seed", static_cast<std::uint64_t>(info.seed))
      .field("population_size",
             static_cast<std::uint64_t>(info.population_size))
      .field("threads", static_cast<std::uint64_t>(info.threads))
      .field("mutation_probability", info.mutation_probability)
      .raw("checkpoints", json_array(info.checkpoints,
                                     [](std::size_t c) {
                                       return std::to_string(c);
                                     }))
      .raw("populations", json_array(info.populations,
                                     [](const std::string& name) {
                                       return '"' + json_escape(name) + '"';
                                     }));
  write_line(o.str());
}

void RunRecorder::record_checkpoint(std::string_view population,
                                    std::size_t iterations,
                                    const std::vector<EUPoint>& front,
                                    double elapsed_seconds) {
  JsonObject o;
  o.field("type", "checkpoint")
      .field("population", population)
      .field("iterations", static_cast<std::uint64_t>(iterations))
      .field("elapsed_s", elapsed_seconds)
      .field("front_size", static_cast<std::uint64_t>(front.size()))
      .raw("front", front_array(front));
  write_line(o.str());
}

void RunRecorder::record_summary(double wall_seconds,
                                 const MetricsSnapshot& metrics) {
  JsonObject o;
  o.field("type", "summary").field("wall_s", wall_seconds);
  append_snapshot(o, metrics);
  write_line(o.str());
}

}  // namespace eus
