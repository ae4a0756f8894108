#include "fleet/ring.hpp"

#include <algorithm>
#include <cmath>

namespace eus::fleet {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

// FNV-1a avalanches poorly in the high bits for short, similar keys (the
// vnode labels differ only in a trailing counter), which skews arc lengths
// on the ring.  A 64-bit finalizer (Murmur3 fmix64) on top restores the
// uniformity the spread and remap guarantees depend on.
std::uint64_t ring_position(std::string_view bytes) noexcept {
  std::uint64_t h = fnv1a64(bytes);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

void HashRing::add(const std::string& name, double weight) {
  if (weight < 0.25) weight = 0.25;
  const auto vnodes = static_cast<std::size_t>(
      std::lround(static_cast<double>(replicas_) * weight));
  const auto backend = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ++backends_;
  points_.reserve(points_.size() + vnodes);
  for (std::size_t r = 0; r < vnodes; ++r) {
    const std::string point = name + '#' + std::to_string(r);
    points_.push_back({ring_position(point), backend});
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash < b.hash ||
                     (a.hash == b.hash && a.backend < b.backend);
            });
}

std::string HashRing::owner(std::string_view key) const {
  if (points_.empty()) return {};
  const std::uint64_t h = ring_position(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, std::uint64_t hash) {
                               return p.hash < hash;
                             });
  if (it == points_.end()) it = points_.begin();  // wrap around
  return names_[it->backend];
}

std::vector<std::uint32_t> HashRing::preference(std::string_view key) const {
  std::vector<std::uint32_t> order;
  if (points_.empty()) return order;
  order.reserve(backends_);
  const std::uint64_t h = ring_position(key);
  auto start = std::lower_bound(points_.begin(), points_.end(), h,
                                [](const Point& p, std::uint64_t hash) {
                                  return p.hash < hash;
                                });
  if (start == points_.end()) start = points_.begin();
  auto it = start;
  do {
    if (std::find(order.begin(), order.end(), it->backend) == order.end()) {
      order.push_back(it->backend);
      if (order.size() == backends_) break;
    }
    ++it;
    if (it == points_.end()) it = points_.begin();
  } while (it != start);
  return order;
}

}  // namespace eus::fleet
