#pragma once

// An external Pareto archive: the all-time nondominated set across any
// stream of candidate solutions (e.g. every front of every seeded
// population in a study).  Optionally capacity-bounded, pruning the most
// crowded interior member first so the archive keeps its extremes and an
// even spread — the same principle as NSGA-II's crowding truncation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pareto/point.hpp"

namespace eus {

class ParetoArchive {
 public:
  struct Entry {
    EUPoint point;
    /// Caller-supplied identifier (population index, genome id, ...).
    std::size_t tag = 0;
    /// Optional genome fingerprint (genome_fingerprint in
    /// sched/allocation.hpp); 0 = unknown.
    /// A nonzero fingerprint already present in the archive rejects the
    /// insertion, so one genome can never occupy two slots.
    std::uint64_t fingerprint = 0;
  };

  /// capacity 0 = unbounded.
  explicit ParetoArchive(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Inserts if no archived point dominates or equals `p`; evicts any
  /// archived points `p` dominates.  Returns true when inserted.  When the
  /// archive exceeds its capacity, the most crowded member is dropped
  /// (never the lowest-energy or highest-utility extreme); exact crowding
  /// ties evict the lowest-energy tied interior member, so eviction order
  /// is deterministic for any insertion sequence.  A nonzero `fingerprint`
  /// matching an archived entry is rejected as a duplicate genome.
  bool insert(const EUPoint& p, std::size_t tag = 0,
              std::uint64_t fingerprint = 0);

  /// Convenience: inserts a whole front.
  std::size_t insert_all(const std::vector<EUPoint>& points,
                         std::size_t tag = 0);

  /// Entries in ascending energy (and therefore ascending utility).
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The archived points only (ascending energy).
  [[nodiscard]] std::vector<EUPoint> points() const;

  /// True iff `p` is dominated by (or equal to) an archived point.
  [[nodiscard]] bool covers(const EUPoint& p) const;

 private:
  void prune();

  std::size_t capacity_;
  std::vector<Entry> entries_;  ///< kept sorted by ascending energy
};

}  // namespace eus
