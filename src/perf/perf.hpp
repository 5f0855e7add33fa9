// The perf corpus and the registry of the paper's reproductions
// (families.cpp).  `xatpg bench --family NAME` prints one reproduction,
// perfbench/driver.cpp reads the corpus's embedded .bench circuits, and two
// tier-1 gates run the corpus: test_golden's CorpusGolden.* holds every
// entry's coverage and peak BDD nodes, and test_parallel_atpg's
// OneManager.* holds, on the random members, that worker threads hold no
// BDD nodes.
//
// The corpus covers three kinds of workload, all driven through the public
// Session facade:
//   * every named benchmark reconstruction, in both synthesis styles
//     (Table 1 speed-independent, Table 2 hazard-free bounded-delay);
//   * seeded random netlist families (deterministic: same seed, same
//     circuit, same counts on every platform);
//   * embedded ISCAS-style .bench circuits (combinational workloads with
//     shapes the handshake corpus does not produce: NAND meshes, parity
//     trees, mux/decode logic).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "xatpg/options.hpp"
#include "xatpg/session.hpp"

namespace xatpg::perf {

// --- corpus -----------------------------------------------------------------

struct CorpusEntry {
  enum class Kind : std::uint8_t {
    SiBenchmark,    ///< named reconstruction, speed-independent synthesis
    BdBenchmark,    ///< named reconstruction, bounded-delay synthesis
    RandomNetlist,  ///< seeded generator family member
    BenchText,      ///< embedded ISCAS-style .bench source
  };
  Kind kind;
  std::string id;    ///< unique key, e.g. "si/chu150", "rand/s11"
  std::string name;  ///< benchmark name / circuit label
  std::uint64_t seed = 0;               ///< RandomNetlist: generator seed
  std::size_t rand_inputs = 3;          ///< RandomNetlist: input count
  std::size_t rand_gates = 8;           ///< RandomNetlist: gate count
  std::string text;                     ///< BenchText: the .bench source
};

/// The full default corpus: all Table 1 + Table 2 names, the seeded random
/// families, and the embedded .bench circuits.
std::vector<CorpusEntry> default_corpus();

/// One corpus entry run through a fresh Session: output-stuck, then
/// input-stuck, then the engine manager's BDD statistics.  `wall_ms` is steady-clock
/// wall time from before Session construction (CSSG building is part of
/// the paper's CPU column) to the end of the second run.
struct SessionRun {
  Session session;
  AtpgResult output_stuck;
  AtpgResult input_stuck;
  ShardBddStats bdd;
  double wall_ms = 0;
};

/// Build and run `entry`.  Throws CheckError when the entry does not build
/// or a run fails — the corpus is in-tree and a broken entry is a bug, not
/// an input error.
SessionRun run_session(const CorpusEntry& entry, const AtpgOptions& options);

// --- paper reproductions (families.cpp) ---------------------------------------

/// One reproduction of the paper's evidence — a table, a figure, an
/// ablation or the §6.1 baseline — printed as text to `out`.  Each family
/// runs its experiment's fixed settings and prints the same table on every
/// run except for its timing columns.  Only table1 and table2 read
/// `options` (threads, seed, k, reorder.enabled), and ablation_ordering
/// reads reorder.enabled; every other family ignores it.
/// Throws CheckError when a circuit fails to build or run.
struct Family {
  const char* name;
  void (*run)(const AtpgOptions& options, std::ostream& out);
};

/// Every reproduction, in registry order.
const std::vector<Family>& families();

/// The family called `name`, or nullptr.
const Family* find_family(const std::string& name);

}  // namespace xatpg::perf
