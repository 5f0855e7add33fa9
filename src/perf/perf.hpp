// Corpus performance harness + machine-readable perf records + regression
// comparator, and the registry of the paper's reproductions (families.cpp).
// `xatpg bench` (tools/xatpg_cli.cpp) is the front end; the CI perf-smoke job
// runs it on every push and diffs the produced record against the
// checked-in bench/baseline.json, and `xatpg bench --family NAME` prints one
// reproduction.
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
//
// A record is versioned JSON (schema below).  Everything the comparator
// gates on — coverage and BDD node counts — is bit-deterministic, so the
// gate has zero flake surface; CPU times are recorded too but only compared
// between records carrying the same host tag (a GitHub runner and a laptop
// are not comparable machines).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "xatpg/options.hpp"
#include "xatpg/session.hpp"

namespace xatpg::perf {

// Schema history:
//   1 — initial record: per-circuit coverage/nodes/CPU + host/threads tags.
//   2 — adds per-circuit `gave_up` (cap-truncated searches, so coverage
//       floors can tell "searched and redundant" from "gave up"), the
//       `host_cores` tag (hardware threads of the recording machine — a
//       single-core host cannot demonstrate scaling), and the optional
//       `sweep` array (per-thread-count corpus CPU with speedup /
//       parallel-efficiency columns).  Old parsers ignore the new keys;
//       this parser defaults them when reading schema-1 records.
//   3 — base/delta-aware memory accounting: per-circuit `base_nodes` (the
//       frozen shared arena, counted once however many workers ran) and
//       `delta_peak` (shard 0's private-arena watermark), plus
//       `peak_resident_nodes` (base once + every shard's delta peak — the
//       true resident footprint; schema-2's per-shard peaks implicitly
//       multiplied the shared substrate by the worker count).  Sweep points
//       carry `peak_resident_nodes` too, which arms the comparator's
//       cross-thread memory gate.  All doubles are now emitted through a
//       finite-checked max_digits10 formatter (schema-2 records could emit
//       invalid `nan`/`inf` tokens and drop digits on round-trip).  The
//       parser defaults the new keys when reading schema-1/2 records.
//   4 — added an optional `serve` object (daemon requests/sec and p50/p99
//       latency, cold vs cached).  It is no longer written: perfbench's
//       `serve` workload measures the daemon instead.  Records that carry
//       it still parse; the parser ignores the key like any unknown one.
inline constexpr int kSchemaVersion = 4;
/// Identifies the kernel generation a record was produced by (recorded in
/// the JSON so a cross-kernel diff is visible in the comparator output).
inline constexpr const char* kKernelName = "complement-edge";

// --- corpus -----------------------------------------------------------------

struct CorpusEntry {
  enum class Kind : std::uint8_t {
    SiBenchmark,    ///< named reconstruction, speed-independent synthesis
    BdBenchmark,    ///< named reconstruction, bounded-delay synthesis
    RandomNetlist,  ///< seeded generator family member
    BenchText,      ///< embedded ISCAS-style .bench source
  };
  Kind kind;
  std::string id;    ///< unique record key, e.g. "si/chu150", "rand/s11"
  std::string name;  ///< benchmark name / circuit label
  std::uint64_t seed = 0;               ///< RandomNetlist: generator seed
  std::size_t rand_inputs = 3;          ///< RandomNetlist: input count
  std::size_t rand_gates = 8;           ///< RandomNetlist: gate count
  std::string text;                     ///< BenchText: the .bench source
};

/// The full default corpus: all Table 1 + Table 2 names, the seeded random
/// families, and the embedded .bench circuits.
std::vector<CorpusEntry> default_corpus();

// --- records ----------------------------------------------------------------

struct CircuitRecord {
  std::string id;
  std::size_t signals = 0, pins = 0;
  /// Input- plus output-stuck universes, summed (the paper's two tables).
  std::size_t faults_total = 0, faults_covered = 0;
  double coverage = 0;  ///< faults_covered / faults_total
  /// Uncovered faults whose 3-phase search was truncated by a resource cap
  /// (vs genuinely search-exhausted/redundant).  0 on a redundant-by-design
  /// circuit means the low coverage is real, not a silent cap blowout.
  std::size_t gave_up = 0;
  std::size_t sequences = 0;
  double cpu_ms = 0;  ///< wall clock from before Session construction
  /// Shard 0's resident watermark: base_nodes + delta_peak (schema 1/2:
  /// the monolithic manager's allocated-node watermark).
  std::size_t peak_nodes = 0;
  std::size_t live_nodes = 0;       ///< live after a final collection
  /// Frozen shared-base arena size — identical for every worker shard, so
  /// it must be counted ONCE per circuit, never once per shard (0 on
  /// schema-1/2 records).
  std::size_t base_nodes = 0;
  /// Shard 0's private delta-arena watermark (0 on schema-1/2 records).
  std::size_t delta_peak = 0;
  /// True resident footprint across every shard that ran: base_nodes once
  /// plus each shard's delta peak (0 on schema-1/2 records).
  std::size_t peak_resident_nodes = 0;
  std::size_t post_sift_nodes = 0;  ///< live after one explicit sift pass
  std::size_t reorders = 0;
  std::size_t cache_lookups = 0, cache_hits = 0;
  double cache_hit_rate = 0;
  double unique_load = 0;
};

/// One threads-sweep measurement point: the whole corpus re-run at a fixed
/// thread count.  speedup/efficiency are relative to the sweep's own
/// threads=1 point, so they are meaningful even on records whose absolute
/// CPU numbers are not comparable across hosts.
struct SweepPoint {
  std::size_t threads = 0;
  double cpu_ms = 0;      ///< corpus total at this thread count
  double speedup = 0;     ///< threads=1 cpu_ms / this cpu_ms
  double efficiency = 0;  ///< speedup / threads (1.0 = perfect scaling)
  /// Corpus total of per-circuit peak_resident_nodes at this thread count
  /// (base arenas once + every shard's delta peak).  Base arenas are
  /// bit-deterministic; delta peaks shift by a fraction of a percent with
  /// the steal interleaving, far inside the comparator's memory-gate
  /// headroom (0 on schema-1/2 records — the gate skips those).
  std::size_t peak_resident_nodes = 0;
};

struct BenchRecord {
  int schema = kSchemaVersion;
  std::string kernel = kKernelName;
  /// Free-form machine tag; compare() only gates CPU between equal tags.
  std::string host;
  std::size_t threads = 1;
  /// Hardware threads of the recording machine (0 = unknown, schema-1
  /// records).  A sweep recorded with host_cores = 1 cannot show real
  /// scaling — workers time-slice one core — and compare() treats its
  /// efficiency columns as informational only.
  std::size_t host_cores = 0;
  std::vector<CircuitRecord> circuits;
  /// Threads-sweep scaling curve (empty unless recorded with
  /// `xatpg bench --threads-sweep`).
  std::vector<SweepPoint> sweep;

  std::size_t total_faults() const;
  std::size_t total_covered() const;
  std::size_t total_gave_up() const;
  std::size_t total_peak_nodes() const;
  double total_cpu_ms() const;
};

/// One corpus entry run through a fresh Session: output-stuck, then
/// input-stuck, then shard 0's BDD statistics.  `cpu_ms` is the wall clock
/// from before Session construction (CSSG building is part of the paper's
/// CPU column) to the end of the second run.
struct SessionRun {
  Session session;
  AtpgResult output_stuck;
  AtpgResult input_stuck;
  ShardBddStats bdd;
  double cpu_ms = 0;
};

/// Build and run `entry`.  Throws CheckError when the entry does not build
/// or a run fails — the harness is in-tree tooling and a broken corpus is a
/// bug, not an input error.
SessionRun run_session(const CorpusEntry& entry, const AtpgOptions& options);

/// run_session, summarised as the record's row (plus one explicit sift pass
/// for post_sift_nodes, and reorders / resident nodes over every shard).
CircuitRecord run_entry(const CorpusEntry& entry, const AtpgOptions& options);

/// Run the corpus in order.  `progress` (optional) receives one line per
/// circuit as it completes.
BenchRecord run_corpus(const std::vector<CorpusEntry>& corpus,
                       const AtpgOptions& options, const std::string& host_tag,
                       std::ostream* progress = nullptr);

/// Run the corpus once per thread count in `thread_counts` and record the
/// scaling curve.  The returned record's `circuits` come from the FIRST
/// point (canonically threads=1); every later point must reproduce the
/// same per-circuit coverage — a live byte-identity cross-check of the
/// work-stealing scheduler — or the harness throws CheckError.
BenchRecord run_sweep(const std::vector<CorpusEntry>& corpus,
                      const AtpgOptions& options, const std::string& host_tag,
                      const std::vector<std::size_t>& thread_counts,
                      std::ostream* progress = nullptr);

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

// --- JSON -------------------------------------------------------------------

void write_json(const BenchRecord& record, std::ostream& out);
std::string to_json(const BenchRecord& record);

/// Parse a record produced by write_json (unknown keys are ignored, so newer
/// records stay readable by older comparators).  Throws CheckError with a
/// position diagnostic on malformed input.
BenchRecord parse_record(const std::string& json_text);

// --- comparator ---------------------------------------------------------------

struct CompareOptions {
  /// A circuit fails when current peak nodes exceed baseline * (1 + this).
  double max_node_regression = 0.25;
  /// Same bound for CPU — applied per circuit (above min_cpu_ms) and to the
  /// corpus total, but only when both records carry the same host tag.
  double max_cpu_regression = 0.25;
  /// Per-circuit CPU gates ignore circuits faster than this in the baseline
  /// (sub-threshold times are dominated by noise, not by the code).
  double min_cpu_ms = 25.0;
  /// A sweep point fails when its speedup falls below baseline speedup *
  /// (1 - this).  Only applied between records with the same host tag AND
  /// the same host_cores (a 1-core and a 4-core runner have incomparable
  /// curves), and never against a host_cores = 1 baseline point (no real
  /// parallelism to regress).
  double max_speedup_regression = 0.25;
  /// Cross-thread memory gate, applied WITHIN the current record's sweep: a
  /// point at >= 4 threads fails when its peak_resident_nodes exceed this
  /// fraction of threads x the threads=1 point's — i.e. 0.6 locks in a
  /// >= 40% resident-memory win over the old design's N private shards
  /// (whose footprint scales as threads x the single-shard peak).  The
  /// shared-base design measures ~0.27 at threads=4, so the sub-percent
  /// jitter delta peaks pick up from the steal interleaving cannot reach
  /// the bound.  Points without the schema-3 field (old records) skip.
  double max_peak_resident_frac = 0.6;
};

struct Comparison {
  bool ok = true;
  std::vector<std::string> failures;  ///< each one is a gate violation
  std::vector<std::string> notes;     ///< informational (improvements, skips)
};

/// Diff `current` against `baseline`.  Gates: every baseline circuit must be
/// present with an unchanged fault universe, coverage must not drop, peak
/// nodes and (host tags permitting) CPU must stay within the regression
/// bounds.  Circuits only in `current` are reported as notes.
Comparison compare(const BenchRecord& baseline, const BenchRecord& current,
                   const CompareOptions& options = {});

}  // namespace xatpg::perf
