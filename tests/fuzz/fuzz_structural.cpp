// Structure-aware netlist fuzzer (the deep-state harness of docs/FUZZING.md).
//
// Byte-level fuzzing of parse_xnl almost never produces a circuit that
// survives check_invariants, so the interesting machinery — CSSG
// construction, settling, the three-phase ATPG engine — would never run.
// This harness turns the input bytes into a *generation recipe* instead:
// seed a valid random netlist, then apply a chain of structure-preserving
// mutations (gate swap / fanin rewire / gate splice / reset perturbation,
// src/netlist/random_netlist.hpp), each re-validated, and drive every mutant
// through three oracles:
//
//   1. canonicalization: write_xnl -> parse_xnl -> write_xnl must preserve
//      the circuit's line set (the serve cache keys on canonical bytes;
//      re-parsing may renumber, so fuzz::sorted_lines is the identity);
//   2. the brute-force CSSG oracle (tests/oracle.hpp): the symbolic CSSG
//      must match explicit enumeration exactly, and on every mutant the
//      packed explicit extraction must equal the oracle extraction id for
//      id, and the TCR_k loop over gate values must give the pair loop's
//      CSSG_k (handle-equal) and statistics;
//   3. the packed settling kernel and fault simulator must match their
//      set-based oracles (tests/oracle.hpp): equal stable sets and bound
//      flags from every oracle-reachable state under every input pattern,
//      equal status and candidates for every fault along a walk;
//   4. the ATPG engine must run to completion with one outcome per fault.
//
// Any exception at all is a violation here: every circuit is valid by
// construction, so even CheckError (legal for hostile *text*) means a
// soundness bug on these inputs.
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "fuzz_common.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "oracle.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace {

constexpr std::size_t kSettle = 20;
/// Brute-force enumeration is exponential-ish; cap the circuits it sees.
constexpr std::size_t kOracleMaxSignals = 12;
/// The engine is cheap on toy circuits but not free; cap its inputs too.
constexpr std::size_t kEngineMaxSignals = 16;

void check_roundtrip(const xatpg::Netlist& netlist, const std::uint8_t* data,
                     std::size_t size) {
  const std::string canonical = xatpg::write_xnl_string(netlist);
  std::string again;
  try {
    const xatpg::Netlist reparsed = xatpg::parse_xnl_string(canonical);
    if (reparsed.num_signals() != netlist.num_signals())
      xatpg::fuzz::violation("canonical re-parse changed the signal count",
                             data, size);
    again = xatpg::write_xnl_string(reparsed);
  } catch (const xatpg::CheckError& e) {
    xatpg::fuzz::violation(
        (std::string("mutant failed to re-parse its canonical form: ") +
         e.what())
            .c_str(),
        data, size);
  }
  if (xatpg::fuzz::sorted_lines(again) != xatpg::fuzz::sorted_lines(canonical))
    xatpg::fuzz::violation(
        "mutant write->parse->write changed the circuit's line set", data,
        size);
}

void check_cssg_oracle(const xatpg::Netlist& netlist,
                       const std::vector<bool>& reset,
                       const xatpg::testing::OracleCssg& oracle,
                       const std::uint8_t* data, std::size_t size) {
  xatpg::CssgOptions options;
  options.k = kSettle;
  const std::string mismatch =
      xatpg::testing::cssg_oracle_mismatch(netlist, reset, oracle, options);
  if (!mismatch.empty())
    xatpg::fuzz::violation(
        (std::string("symbolic CSSG diverged from brute force: ") + mismatch +
         "\ncircuit:\n" + xatpg::write_xnl_string(netlist))
            .c_str(),
        data, size);
}

void check_extraction(const xatpg::Netlist& netlist,
                      const std::vector<bool>& reset, const std::uint8_t* data,
                      std::size_t size) {
  // The interleaved layout enumerates rows in signal order already; the
  // reversed one needs the canonicalizing sort.
  std::optional<xatpg::testing::OracleExplicitCssg> oracle;
  for (const xatpg::VarOrder order :
       {xatpg::VarOrder::Interleaved, xatpg::VarOrder::ReverseInterleaved}) {
    xatpg::CssgOptions options;
    options.k = kSettle;
    options.order = order;
    const xatpg::Cssg cssg(netlist, reset, options);
    if (!oracle) oracle = xatpg::testing::oracle_extract_explicit(cssg);
    const std::string mismatch = xatpg::testing::explicit_oracle_mismatch(
        cssg.extract_explicit(), *oracle);
    if (!mismatch.empty())
      xatpg::fuzz::violation(
          (std::string("packed explicit CSSG diverged from the oracle "
                       "extraction under ") +
           xatpg::var_order_name(order) + ": " + mismatch + "\ncircuit:\n" +
           xatpg::write_xnl_string(netlist))
              .c_str(),
          data, size);
  }
}

void check_tcr(const xatpg::Netlist& netlist, const std::vector<bool>& reset,
               const std::uint8_t* data, std::size_t size) {
  for (const xatpg::VarOrder order :
       {xatpg::VarOrder::Interleaved, xatpg::VarOrder::ReverseInterleaved}) {
    xatpg::CssgOptions options;
    options.k = kSettle;
    options.order = order;
    const xatpg::Cssg cssg(netlist, reset, options);
    const std::string mismatch = xatpg::testing::tcr_oracle_mismatch(cssg);
    if (!mismatch.empty())
      xatpg::fuzz::violation(
          (std::string("TCR_k over gate values diverged from the pair loop "
                       "under ") +
           xatpg::var_order_name(order) + ": " + mismatch + "\ncircuit:\n" +
           xatpg::write_xnl_string(netlist))
              .c_str(),
          data, size);
  }
}

void check_kernel(const xatpg::Netlist& netlist, const std::vector<bool>& reset,
                  const xatpg::testing::OracleCssg& oracle,
                  const std::uint8_t* data, std::size_t size) {
  const auto fail = [&](const std::string& what) {
    xatpg::fuzz::violation((what + "\ncircuit:\n" +
                            xatpg::write_xnl_string(netlist))
                               .c_str(),
                           data, size);
  };
  using xatpg::testing::oracle_detail::bits;
  const std::size_t m = netlist.inputs().size();
  for (const std::vector<bool>& state : oracle.states) {
    for (std::uint64_t p = 0; p < (1ull << m); ++p) {
      std::vector<bool> pattern(m);
      for (std::size_t i = 0; i < m; ++i) pattern[i] = (p >> i) & 1;
      for (const std::size_t k : {std::size_t{0}, std::size_t{2}, kSettle}) {
        const xatpg::ExploreResult got =
            xatpg::explore_settling(netlist, state, pattern, k);
        const xatpg::ExploreResult want =
            xatpg::testing::oracle_explore_settling(netlist, state, pattern, k);
        if (got.stable_states != want.stable_states ||
            got.exceeded_bound != want.exceeded_bound)
          fail("packed settling diverged from the set-based oracle from " +
               bits(state) + " under " + bits(pattern) + " at k=" +
               std::to_string(k));
      }
    }
  }

  // A walk of valid vectors: the oracle's edges, picked by a generator
  // seeded from the circuit so the mutation stream stays untouched.
  std::vector<std::pair<std::vector<bool>, std::vector<bool>>> walk;
  xatpg::Rng pick(netlist.num_signals() * 7919 + oracle.edges.size());
  std::vector<bool> good = reset;
  for (int t = 0; t < 4; ++t) {
    std::vector<const xatpg::testing::OracleCssg::Edge*> out;
    for (const auto& edge : oracle.edges)
      if (std::get<0>(edge) == good) out.push_back(&edge);
    if (out.empty()) break;
    const auto& edge = *out[pick.below(out.size())];
    walk.emplace_back(std::get<1>(edge), std::get<2>(edge));
    good = std::get<2>(edge);
  }
  std::vector<xatpg::Fault> faults = xatpg::input_stuck_faults(netlist);
  const std::vector<xatpg::Fault> outputs = xatpg::output_stuck_faults(netlist);
  faults.insert(faults.end(), outputs.begin(), outputs.end());
  xatpg::FaultSimOptions options;
  options.k = kSettle;
  for (const xatpg::Fault& fault : faults) {
    xatpg::FaultSimulator sim(netlist, fault, reset, options);
    xatpg::testing::OracleFaultSimulator want(netlist, fault, reset, options);
    for (std::size_t t = 0; t <= walk.size(); ++t) {
      if (t > 0) {
        sim.step(walk[t - 1].first, walk[t - 1].second);
        want.step(walk[t - 1].first, walk[t - 1].second);
      }
      if (sim.status() != want.status() ||
          xatpg::testing::unpacked_candidates(sim, netlist) !=
              want.candidates())
        fail("packed fault simulator diverged from the set-based oracle on " +
             fault.describe(netlist) + " after " + std::to_string(t) +
             " vectors");
    }
  }
}

void check_engine(const xatpg::Netlist& netlist,
                  const std::vector<bool>& reset, const std::uint8_t* data,
                  std::size_t size) {
  xatpg::AtpgOptions options;
  options.seed = 7;
  options.random_budget = 8;
  options.random_walk_len = 4;
  const std::vector<xatpg::Fault> faults = xatpg::input_stuck_faults(netlist);
  xatpg::AtpgEngine engine(netlist, reset, options);
  const xatpg::AtpgResult result = engine.run(faults);
  if (result.outcomes.size() != faults.size())
    xatpg::fuzz::violation("engine returned wrong outcome count", data, size);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > 64) return 0;  // a recipe, not a document
  std::uint64_t seed = 0xa5a5a5a5ull;
  for (std::size_t i = 0; i < size; ++i) seed = seed * 1099511628211ull + data[i];
  xatpg::Rng rng(seed);

  xatpg::RandomNetlistOptions generate;
  generate.num_inputs = 3;
  generate.num_gates = 4 + rng.below(4);
  std::vector<bool> reset;
  xatpg::Netlist current;
  try {
    current = xatpg::random_netlist(rng.next(), generate, &reset);
  } catch (const xatpg::CheckError&) {
    return 0;  // generator refused the seed (non-confluent from all-false)
  }

  try {
    const std::size_t rounds = 1 + rng.below(3);
    for (std::size_t round = 0; round < rounds; ++round) {
      std::optional<xatpg::MutatedNetlist> mutant =
          xatpg::mutate_netlist(current, rng);
      if (!mutant) break;
      current = std::move(mutant->netlist);
      reset = std::move(mutant->reset);

      check_roundtrip(current, data, size);
      check_extraction(current, reset, data, size);
      check_tcr(current, reset, data, size);
      if (current.num_signals() <= kOracleMaxSignals) {
        const xatpg::testing::OracleCssg oracle =
            xatpg::testing::oracle_cssg(current, reset, kSettle);
        check_cssg_oracle(current, reset, oracle, data, size);
        check_kernel(current, reset, oracle, data, size);
      }
      if (current.num_signals() <= kEngineMaxSignals)
        check_engine(current, reset, data, size);
    }
  } catch (const std::exception& e) {
    xatpg::fuzz::violation(
        (std::string("exception on a valid-by-construction circuit: ") +
         e.what())
            .c_str(),
        data, size);
  } catch (...) {
    xatpg::fuzz::violation("non-std exception on a valid circuit", data, size);
  }
  return 0;
}
