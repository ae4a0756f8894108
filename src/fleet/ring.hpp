#pragma once

// Consistent-hash ring over backend names, weighted by speed factor.  The
// router hashes each allocate request's fingerprint (protocol.hpp) onto
// the ring so a scenario's cached front lives on a stable shard: repeated
// nsga2/pareto-query requests for the same fingerprint keep landing on the
// same backend's LRU cache, and adding or removing one backend of N remaps
// only ~1/N of the fingerprints (tested in test_fleet_ring).
//
// Plain FNV-1a on (name, replica) points — no cryptographic needs, just a
// deterministic, platform-independent spread.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace eus::fleet {

/// Deterministic 64-bit FNV-1a (exposed for tests).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

class HashRing {
 public:
  /// `replicas` virtual nodes per unit of weight keep the spread even with
  /// few backends; per-backend weight scales with its speed factor so fast
  /// machines own proportionally more of the keyspace.
  explicit HashRing(std::size_t replicas = 64) : replicas_(replicas) {}

  /// Adds `name` with `weight` (clamped >= 0.25 so a slow backend still
  /// owns a slice).  Call build order does not matter.
  void add(const std::string& name, double weight = 1.0);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t backends() const noexcept { return backends_; }

  /// The owner of `key`: the first ring point at or clockwise of
  /// hash(key).  Empty string on an empty ring.
  [[nodiscard]] std::string owner(std::string_view key) const;

  /// All distinct backends in ring order starting at `key`'s owner — the
  /// failover preference order (owner first, then its successors) — each
  /// as its position in add() order.  Empty on an empty ring.
  [[nodiscard]] std::vector<std::uint32_t> preference(
      std::string_view key) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t backend;  ///< index into names_
  };

  std::size_t replicas_;
  std::size_t backends_ = 0;
  std::vector<std::string> names_;
  std::vector<Point> points_;  ///< sorted by hash after add()
};

}  // namespace eus::fleet
