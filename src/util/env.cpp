#include "util/env.hpp"

#include <cstdlib>

namespace eus {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

double env_double(const char* name, double fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(*text, &pos);
    if (pos != text->size()) return fallback;
    return v;
  } catch (...) {
    return fallback;
  }
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(*text, &pos);
    if (pos != text->size()) return fallback;
    return v;
  } catch (...) {
    return fallback;
  }
}

double bench_scale() {
  const double s = env_double("EUS_SCALE", 1.0);
  return s > 0.0 ? s : 1.0;
}

std::uint64_t bench_seed() {
  return static_cast<std::uint64_t>(env_int("EUS_SEED", 20130520));
}

std::size_t bench_threads() {
  const std::int64_t t = env_int("EUS_THREADS", 0);
  return t < 0 ? 0U : static_cast<std::size_t>(t);
}

std::uint16_t serve_port() {
  constexpr std::int64_t kDefault = 7461;
  const std::int64_t p = env_int("EUS_SERVE_PORT", kDefault);
  return (p > 0 && p <= 65535) ? static_cast<std::uint16_t>(p)
                               : static_cast<std::uint16_t>(kDefault);
}

std::size_t serve_queue_depth() {
  const std::int64_t d = env_int("EUS_SERVE_QUEUE_DEPTH", 64);
  return d < 1 ? 1U : static_cast<std::size_t>(d);
}

}  // namespace eus
