// Two-level cover algebra: cubes over up to 32 variables as (care, value)
// bit masks, prime generation from the off-set (every code outside it is an
// on-minterm or a don't-care), greedy irredundant covering, and
// consensus-term generation (the hazard covers SIS-style synthesis inserts —
// the source of the redundancy that drives the paper's Table 2 result).
#pragma once

#include <cstdint>
#include <vector>

namespace xatpg {

/// Product term over `nvars` variables: variable i is constrained to
/// bit i of `value` when bit i of `care` is set, free otherwise.
struct MinCube {
  std::uint32_t care = 0;
  std::uint32_t value = 0;  // invariant: value subset of care

  bool operator==(const MinCube&) const = default;
  bool operator<(const MinCube& o) const {
    return care != o.care ? care < o.care : value < o.value;
  }

  bool covers_minterm(std::uint32_t m) const { return (m & care) == value; }
  /// True if this cube's cover contains other's cover.
  bool contains(const MinCube& other) const {
    return (care & ~other.care) == 0 && ((other.value ^ value) & care) == 0;
  }
  int num_literals() const { return __builtin_popcount(care); }
};

/// All prime implicants of ¬off over `nvars` variables, sorted.  Nelson's
/// multiply-out of the off-set: the cost follows the off-set and the prime
/// count, never the 2^nvars codes outside it.
std::vector<MinCube> prime_implicants(const std::vector<std::uint32_t>& off,
                                      unsigned nvars);

/// Greedy minimum cover of `on` by primes of ¬off (essential primes first,
/// then largest-gain / fewest-literal cubes).  Codes in neither set are
/// don't-cares; `on` and `off` must be disjoint.
std::vector<MinCube> minimize_sop(const std::vector<std::uint32_t>& on,
                                  const std::vector<std::uint32_t>& off,
                                  unsigned nvars);

/// Consensus (resolvent) of two cubes if they clash in exactly one variable;
/// returns false otherwise.
bool consensus(const MinCube& a, const MinCube& b, MinCube* out);

/// Add every consensus term of cube pairs in `cover` that is not already
/// contained in an existing cube (closing the cover against single-variable
/// transition hazards).  Added cubes are implicants by construction.
/// Returns the number of cubes added.
std::size_t add_consensus_cubes(std::vector<MinCube>& cover);

/// Evaluate a cover on a minterm.
bool cover_eval(const std::vector<MinCube>& cover, std::uint32_t minterm);

/// True iff every on-minterm is covered and no off-minterm is.
bool cover_is_correct(const std::vector<MinCube>& cover,
                      const std::vector<std::uint32_t>& on,
                      const std::vector<std::uint32_t>& off);

}  // namespace xatpg
