// Differential fuzz harness for the synthesis layer's two-level cover
// algebra (src/synth/cover.hpp).
//
// The bytes describe one incompletely specified function: byte 0 picks
// nvars (0..8), then each minterm m takes the 2-bit class at bit 2m of the
// remaining bytes (0 dc, 1 on, 2 off, 3 dc; missing bytes read as dc).
//
// Contract: prime_implicants(off) is exactly the prime set the all-pairs
// Quine–McCluskey oracle (tests/oracle.hpp) finds for on ∪ dc, in the same
// order; minimize_sop(on, off) equals the oracle's cover; and that cover is
// correct (every on-minterm covered, no off-minterm).  On and off are
// disjoint by construction, so any exception is a violation.
//
// nvars stays at 8 or below: the oracle grows as 3^nvars, and on dense
// random off-sets so does the multiply-out.  Synthesis never hands the
// generator such inputs, since its off-sets are subsets of the reachable
// codes.
#include <exception>
#include <string>
#include <vector>

#include "fuzz_common.hpp"
#include "oracle.hpp"
#include "synth/cover.hpp"

namespace {

constexpr unsigned kMaxVars = 8;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > 1 + (std::size_t{2} << kMaxVars) / 8) return 0;
  const unsigned nvars = data[0] % (kMaxVars + 1);
  std::vector<std::uint32_t> on, off, dc;
  for (std::uint32_t m = 0; m < (1u << nvars); ++m) {
    const std::size_t byte = 1 + m / 4;
    const unsigned cls = byte < size ? (data[byte] >> (2 * (m % 4))) & 3u : 0;
    (cls == 1 ? on : cls == 2 ? off : dc).push_back(m);
  }

  try {
    const std::vector<xatpg::MinCube> primes =
        xatpg::prime_implicants(off, nvars);
    if (primes != xatpg::testing::oracle_prime_implicants(on, dc, nvars))
      xatpg::fuzz::violation("prime_implicants differs from the QM oracle",
                             data, size);
    const std::vector<xatpg::MinCube> cover =
        xatpg::minimize_sop(on, off, nvars);
    if (cover != xatpg::testing::oracle_minimize_sop(on, dc, nvars))
      xatpg::fuzz::violation("minimize_sop differs from the QM oracle", data,
                             size);
    if (!xatpg::cover_is_correct(cover, on, off))
      xatpg::fuzz::violation("minimize_sop cover is not correct", data, size);
  } catch (const std::exception& e) {
    xatpg::fuzz::violation(
        (std::string("exception on a well-formed function: ") + e.what())
            .c_str(),
        data, size);
  } catch (...) {
    xatpg::fuzz::violation("non-std exception on a well-formed function", data,
                           size);
  }
  return 0;
}
