#include "tenant/repair.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "workload/trace.hpp"

namespace eus::tenant {
namespace {

/// Lowest-index eligible instance with minimum ETC for the task type, or -1
/// when the type has no eligible instance.
int cheapest_eligible(const SystemModel& system, std::size_t task_type) {
  const auto& eligible = system.eligible_machines(task_type);
  int best = -1;
  double best_etc = std::numeric_limits<double>::infinity();
  for (const int m : eligible) {
    const double etc = system.etc_on(task_type, static_cast<std::size_t>(m));
    if (etc < best_etc) {
      best_etc = etc;
      best = m;
    }
  }
  return best;
}

}  // namespace

SystemModel drop_machine_instances(const SystemModel& system,
                                   const std::vector<std::size_t>& dropped) {
  const std::size_t old_count = system.num_machines();
  std::vector<bool> gone(old_count, false);
  for (const std::size_t m : dropped) {
    if (m >= old_count) {
      throw std::invalid_argument("drop-machine index " + std::to_string(m) +
                                  " out of range (system has " +
                                  std::to_string(old_count) + " machines)");
    }
    if (gone[m]) {
      throw std::invalid_argument("drop-machine index " + std::to_string(m) +
                                  " listed twice");
    }
    gone[m] = true;
  }
  if (dropped.size() >= old_count) {
    throw std::invalid_argument("cannot drop every machine instance");
  }

  std::vector<Machine> kept;
  kept.reserve(old_count - dropped.size());
  for (std::size_t m = 0; m < old_count; ++m) {
    if (!gone[m]) kept.push_back(system.machines()[m]);
  }
  SystemModel reduced(system.task_types(), system.machine_types(),
                      std::move(kept), system.etc(), system.epc());

  // A task type that could run before must still have a home: the ETC matrix
  // only encodes *type*-level eligibility, so losing the last instance of the
  // only eligible machine type strands the task silently otherwise.
  for (std::size_t t = 0; t < system.num_task_types(); ++t) {
    if (!system.eligible_machines(t).empty() &&
        reduced.eligible_machines(t).empty()) {
      throw std::invalid_argument(
          "machine drop leaves task type " + std::to_string(t) +
          " with no eligible machine instance");
    }
  }
  return reduced;
}

std::vector<int> machine_index_map(std::size_t old_count,
                                   const std::vector<std::size_t>& dropped) {
  std::vector<int> map(old_count, -1);
  std::vector<bool> gone(old_count, false);
  for (const std::size_t m : dropped) {
    if (m >= old_count) {
      throw std::invalid_argument("drop-machine index out of range");
    }
    gone[m] = true;
  }
  int next = 0;
  for (std::size_t m = 0; m < old_count; ++m) {
    if (!gone[m]) map[m] = next++;
  }
  return map;
}

std::vector<Allocation> repair_genomes(const std::vector<Allocation>& genomes,
                                       const BiObjectiveProblem& problem,
                                       const std::vector<int>& index_map) {
  const std::size_t tasks = problem.genome_size();
  const SystemModel& system = problem.system();
  const Trace& trace = problem.trace();
  const std::size_t pstates = problem.num_pstates();
  const int machines = static_cast<int>(system.num_machines());

  std::vector<Allocation> repaired;
  repaired.reserve(genomes.size());
  std::unordered_set<std::uint64_t> seen;
  for (const Allocation& g : genomes) {
    Allocation a = g;

    // Resize to the target trace.  Appended tasks go to their cheapest
    // eligible machine and run after every inherited order.
    if (a.machine.size() > tasks) {
      a.machine.resize(tasks);
      a.order.resize(tasks);
      if (!a.pstate.empty()) a.pstate.resize(tasks);
    } else if (a.machine.size() < tasks) {
      int max_order = 0;
      for (const int o : a.order) max_order = std::max(max_order, o);
      const bool had_pstate = !a.pstate.empty();
      while (a.machine.size() < tasks) {
        const std::size_t i = a.machine.size();
        a.machine.push_back(cheapest_eligible(system, trace.task(i).type));
        a.order.push_back(++max_order);
        if (had_pstate) a.pstate.push_back(0);
      }
    }

    // Remap across dropped instances, then enforce per-task eligibility.
    bool feasible = true;
    for (std::size_t i = 0; i < tasks; ++i) {
      int m = a.machine[i];
      if (!index_map.empty()) {
        m = (m >= 0 && static_cast<std::size_t>(m) < index_map.size())
                ? index_map[static_cast<std::size_t>(m)]
                : -1;
      }
      const std::size_t type = trace.task(i).type;
      if (m < 0 || m >= machines ||
          !system.eligible(type, static_cast<std::size_t>(m))) {
        m = cheapest_eligible(system, type);
      }
      if (m < 0) {
        feasible = false;  // task type has no eligible machine at all
        break;
      }
      a.machine[i] = m;
    }
    if (!feasible) continue;

    if (pstates == 0) {
      a.pstate.clear();
    } else {
      a.pstate.resize(tasks, 0);
      const int top = static_cast<int>(pstates) - 1;
      for (int& p : a.pstate) p = std::clamp(p, 0, top);
    }

    if (seen.insert(genome_fingerprint(a)).second) {
      repaired.push_back(std::move(a));
    }
  }
  return repaired;
}

}  // namespace eus::tenant
