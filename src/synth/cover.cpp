#include "synth/cover.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xatpg {

std::vector<MinCube> prime_implicants(const std::vector<std::uint32_t>& off,
                                      unsigned nvars) {
  XATPG_CHECK(nvars <= 32);
  const std::uint32_t all = nvars == 32 ? ~0u : ((1u << nvars) - 1);

  // Nelson's multiply-out: ¬off is the product, over off-minterms m, of the
  // clause "some variable differs from m".  Multiplying the clauses into the
  // universe cube one at a time and absorbing after each keeps exactly the
  // primes of the partial product, so the survivors are the primes of ¬off.
  std::vector<MinCube> primes{MinCube{}};
  std::vector<MinCube> split;
  for (const std::uint32_t m : off) {
    XATPG_CHECK_MSG((m & ~all) == 0, "off-minterm " << m << " exceeds "
                                                    << nvars << " variables");
    // A cube containing m gives way to its one-literal refinements that
    // exclude m: one per free variable, set opposite to m's bit.
    split.clear();
    std::size_t kept = 0;
    for (const MinCube& c : primes) {
      if (!c.covers_minterm(m)) {
        primes[kept++] = c;
        continue;
      }
      for (std::uint32_t vars = all & ~c.care; vars != 0; vars &= vars - 1) {
        const std::uint32_t bit = vars & (0u - vars);
        split.push_back(MinCube{c.care | bit, c.value | (bit & ~m)});
      }
    }
    primes.resize(kept);
    // Absorption.  Only a kept cube can contain a refinement: no kept cube
    // lies inside a refinement (its parent would contain it), and a
    // refinement c2·(x_w != m_w) contains c1·(x_v != m_v) only when v = w
    // (c1 contains m, so otherwise the latter admits x_w = m_w) and
    // c2 ⊇ c1, that is c2 = c1.
    for (const MinCube& r : split)
      if (std::none_of(primes.begin(),
                       primes.begin() + static_cast<long>(kept),
                       [&](const MinCube& d) { return d.contains(r); }))
        primes.push_back(r);
  }
  std::sort(primes.begin(), primes.end());
  return primes;
}

std::vector<MinCube> minimize_sop(const std::vector<std::uint32_t>& on,
                                  const std::vector<std::uint32_t>& off,
                                  unsigned nvars) {
  if (on.empty()) return {};
  const auto primes = prime_implicants(off, nvars);

  // Greedy set cover over the on-set.
  std::vector<std::uint32_t> uncovered = on;
  std::sort(uncovered.begin(), uncovered.end());
  uncovered.erase(std::unique(uncovered.begin(), uncovered.end()),
                  uncovered.end());
  std::vector<MinCube> cover;
  std::vector<bool> prime_used(primes.size(), false);

  // Essential primes first: an on-minterm covered by exactly one prime.
  for (const std::uint32_t m : uncovered) {
    int only = -1, count = 0;
    for (std::size_t p = 0; p < primes.size(); ++p)
      if (primes[p].covers_minterm(m)) {
        ++count;
        only = static_cast<int>(p);
      }
    XATPG_CHECK_MSG(count > 0, "on-minterm not covered by any prime");
    if (count == 1 && !prime_used[only]) {
      prime_used[only] = true;
      cover.push_back(primes[only]);
    }
  }
  const auto strip_covered = [&] {
    uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                   [&](std::uint32_t m) {
                                     return cover_eval(cover, m);
                                   }),
                    uncovered.end());
  };
  strip_covered();

  while (!uncovered.empty()) {
    std::size_t best = primes.size();
    long best_gain = -1;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (prime_used[p]) continue;
      long gain = 0;
      for (const std::uint32_t m : uncovered)
        if (primes[p].covers_minterm(m)) ++gain;
      // Prefer more coverage; tie-break on fewer literals (bigger cube).
      gain = gain * 64 - primes[p].num_literals();
      if (gain > best_gain) {
        best_gain = gain;
        best = p;
      }
    }
    XATPG_CHECK(best < primes.size());
    prime_used[best] = true;
    cover.push_back(primes[best]);
    strip_covered();
  }

  // Irredundancy pass: drop cubes whose on-minterms are covered elsewhere.
  for (std::size_t i = cover.size(); i-- > 0;) {
    std::vector<MinCube> without = cover;
    without.erase(without.begin() + static_cast<long>(i));
    bool redundant = true;
    for (const std::uint32_t m : on)
      if (!cover_eval(without, m)) {
        redundant = false;
        break;
      }
    if (redundant) cover = std::move(without);
  }
  return cover;
}

bool consensus(const MinCube& a, const MinCube& b, MinCube* out) {
  const std::uint32_t both = a.care & b.care;
  const std::uint32_t clash = (a.value ^ b.value) & both;
  if (__builtin_popcount(clash) != 1) return false;
  out->care = (a.care | b.care) & ~clash;
  out->value = (a.value | b.value) & out->care;
  return true;
}

std::size_t add_consensus_cubes(std::vector<MinCube>& cover) {
  std::size_t added = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::size_t size = cover.size();
    for (std::size_t i = 0; i < size && !changed; ++i) {
      for (std::size_t j = i + 1; j < size && !changed; ++j) {
        MinCube c;
        if (!consensus(cover[i], cover[j], &c)) continue;
        bool contained = false;
        for (const MinCube& d : cover)
          if (d.contains(c)) {
            contained = true;
            break;
          }
        if (contained) continue;
        cover.push_back(c);
        ++added;
        changed = true;  // restart: new cube enables new consensus pairs
      }
    }
  }
  return added;
}

bool cover_eval(const std::vector<MinCube>& cover, std::uint32_t minterm) {
  for (const MinCube& c : cover)
    if (c.covers_minterm(minterm)) return true;
  return false;
}

bool cover_is_correct(const std::vector<MinCube>& cover,
                      const std::vector<std::uint32_t>& on,
                      const std::vector<std::uint32_t>& off) {
  for (const std::uint32_t m : on)
    if (!cover_eval(cover, m)) return false;
  for (const std::uint32_t m : off)
    if (cover_eval(cover, m)) return false;
  return true;
}

}  // namespace xatpg
