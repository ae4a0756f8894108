#pragma once

// A resource allocation (§I): a complete mapping of every trace task onto a
// machine instance, plus the *global scheduling order* that sequences tasks
// within each machine's queue (§IV-D).  This is the phenotype shared by the
// greedy heuristics and the NSGA-II chromosome.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eus {

struct Allocation {
  /// machine[i]: machine instance executing trace task i.
  std::vector<int> machine;
  /// order[i]: global scheduling order of task i.  Lower runs earlier on
  /// its machine; ties break on the task index (stable).  The paper draws
  /// these from 1..T, but any integers work — they act as priorities.
  std::vector<int> order;
  /// Optional DVFS extension: pstate[i] indexes the P-state task i runs
  /// at.  Empty means "nominal frequency for every task".
  std::vector<int> pstate;

  [[nodiscard]] std::size_t size() const noexcept { return machine.size(); }

  friend bool operator==(const Allocation&, const Allocation&) = default;
};

/// 64-bit fingerprint of (machine, order, pstate), used to reject duplicate
/// genomes.  Equal genomes always fingerprint equally; distinct genomes
/// collide with ~2^-64 probability.
[[nodiscard]] std::uint64_t genome_fingerprint(
    const Allocation& genome) noexcept;

/// Identity-order allocation of the given size with every task on machine 0
/// (useful as a neutral starting point in tests).
[[nodiscard]] inline Allocation make_trivial_allocation(std::size_t tasks) {
  Allocation a;
  a.machine.assign(tasks, 0);
  a.order.resize(tasks);
  for (std::size_t i = 0; i < tasks; ++i) a.order[i] = static_cast<int>(i);
  return a;
}

}  // namespace eus
