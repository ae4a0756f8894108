#include "sched/allocation.hpp"

namespace eus {

namespace {

/// SplitMix64 finalizer: decorrelates the accumulated words so the high
/// and low bits of the fingerprint are both well mixed.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30U;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27U;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31U;
  return x;
}

constexpr std::uint64_t combine(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U)));
}

/// Hashes one gene vector into the running fingerprint.  A single
/// combine() chain costs ~10 cycles of *latency* per gene (each step
/// depends on the last), which for multi-hundred-task genomes would make
/// the fingerprint as expensive as an evaluation.  Four independent
/// xor-multiply lanes overlap in the pipeline (~1 cycle per gene); the
/// final combine() restores avalanche.
std::uint64_t hash_genes(std::uint64_t h, const std::vector<int>& genes)
    noexcept {
  const std::size_t n = genes.size();
  h = combine(h, n);  // vector boundaries matter, not just concatenation
  std::uint64_t l0 = h ^ 0x9e3779b97f4a7c15ULL;
  std::uint64_t l1 = h ^ 0xbf58476d1ce4e5b9ULL;
  std::uint64_t l2 = h ^ 0x94d049bb133111ebULL;
  std::uint64_t l3 = h ^ 0x2545f4914f6cdd1dULL;
  const int* g = genes.data();
  const auto word = [](int lo, int hi) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi))
            << 32U);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {  // two genes per word, one multiply per word
    l0 = (l0 ^ word(g[i], g[i + 1])) * 0xff51afd7ed558ccdULL;
    l1 = (l1 ^ word(g[i + 2], g[i + 3])) * 0xc4ceb9fe1a85ec53ULL;
    l2 = (l2 ^ word(g[i + 4], g[i + 5])) * 0x87c37b91114253d5ULL;
    l3 = (l3 ^ word(g[i + 6], g[i + 7])) * 0x4cf5ad432745937fULL;
  }
  for (; i < n; ++i) {
    l0 = mix64(l0 ^ static_cast<std::uint32_t>(g[i]));
  }
  return combine(combine(l0, l1), combine(l2, l3));
}

}  // namespace

std::uint64_t genome_fingerprint(const Allocation& genome) noexcept {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi, nothing up the sleeve
  h = hash_genes(h, genome.machine);
  h = hash_genes(h, genome.order);
  h = hash_genes(h, genome.pstate);
  return h;
}

}  // namespace eus
