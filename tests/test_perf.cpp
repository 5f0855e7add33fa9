// Perf-harness suite: corpus shape, record determinism, JSON round-trip,
// the regression comparator the CI perf gate runs (xatpg bench-compare), and
// the paper reproductions (xatpg bench --family) with the facts they show.
#include "perf/perf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "benchmarks/benchmarks.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/session.hpp"

namespace xatpg::perf {
namespace {

CorpusEntry entry_by_id(const std::string& id) {
  for (CorpusEntry& entry : default_corpus())
    if (entry.id == id) return entry;
  ADD_FAILURE() << "corpus entry '" << id << "' not found";
  return {};
}

TEST(PerfCorpus, DefaultCorpusCoversAllFamilies) {
  const std::vector<CorpusEntry> corpus = default_corpus();
  std::set<std::string> ids;
  std::size_t si = 0, bd = 0, rand = 0, bench = 0;
  for (const CorpusEntry& entry : corpus) {
    EXPECT_TRUE(ids.insert(entry.id).second) << "duplicate id " << entry.id;
    switch (entry.kind) {
      case CorpusEntry::Kind::SiBenchmark: ++si; break;
      case CorpusEntry::Kind::BdBenchmark: ++bd; break;
      case CorpusEntry::Kind::RandomNetlist: ++rand; break;
      case CorpusEntry::Kind::BenchText: ++bench; break;
    }
  }
  // Full named corpus (both synthesis styles) + seeded families + .bench.
  EXPECT_EQ(si, 24u);
  EXPECT_EQ(bd, 9u);
  EXPECT_GE(rand, 4u);
  EXPECT_GE(bench, 3u);
}

TEST(PerfRun, RecordsAreDeterministicWhereTheGateLooks) {
  // Everything bench-compare gates on — coverage and node counts — must be
  // bit-identical across runs; only cpu_ms may differ.
  const CorpusEntry entry = entry_by_id("bench/parity5");
  const CircuitRecord a = run_entry(entry, AtpgOptions{});
  const CircuitRecord b = run_entry(entry, AtpgOptions{});
  EXPECT_EQ(a.faults_total, b.faults_total);
  EXPECT_EQ(a.faults_covered, b.faults_covered);
  EXPECT_EQ(a.sequences, b.sequences);
  EXPECT_EQ(a.peak_nodes, b.peak_nodes);
  EXPECT_EQ(a.live_nodes, b.live_nodes);
  EXPECT_EQ(a.post_sift_nodes, b.post_sift_nodes);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  // And the record is populated, not a pile of zeros.
  EXPECT_GT(a.faults_total, 0u);
  EXPECT_GT(a.faults_covered, 0u);
  EXPECT_GT(a.peak_nodes, 0u);
  EXPECT_GT(a.cache_lookups, a.cache_hits);
  EXPECT_GT(a.cache_hit_rate, 0.0);
  EXPECT_LE(a.post_sift_nodes, a.live_nodes);
  EXPECT_GT(a.cpu_ms, 0.0);
}

TEST(PerfRun, RandomFamilyEntryRunsThroughSessionFacade) {
  const CorpusEntry entry = entry_by_id("rand/s11");
  const CircuitRecord record = run_entry(entry, AtpgOptions{});
  EXPECT_GT(record.signals, entry.rand_inputs);
  EXPECT_GT(record.faults_total, 0u);
  EXPECT_GT(record.peak_nodes, 0u);
}

TEST(PerfRun, SessionFromBenchParsesAndRejects) {
  const CorpusEntry c17 = entry_by_id("bench/c17");
  const Expected<Session> ok = Session::from_bench(c17.text);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->num_inputs(), 5u);
  EXPECT_EQ(ok->num_outputs(), 2u);

  const Expected<Session> dff =
      Session::from_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
  ASSERT_FALSE(dff.has_value());
  EXPECT_EQ(dff.error().code, ErrorCode::ParseError);
}

TEST(PerfJson, RoundTripPreservesEveryGatedField) {
  std::vector<CorpusEntry> corpus{entry_by_id("bench/parity5"),
                                  entry_by_id("bench/c17")};
  const BenchRecord record =
      run_corpus(corpus, AtpgOptions{}, "unit-\"host\"\n");
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.schema, record.schema);
  EXPECT_EQ(parsed.kernel, record.kernel);
  EXPECT_EQ(parsed.host, record.host);  // escaping round-trips
  EXPECT_EQ(parsed.threads, record.threads);
  ASSERT_EQ(parsed.circuits.size(), record.circuits.size());
  for (std::size_t i = 0; i < parsed.circuits.size(); ++i) {
    const CircuitRecord& a = record.circuits[i];
    const CircuitRecord& b = parsed.circuits[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.faults_total, b.faults_total);
    EXPECT_EQ(a.faults_covered, b.faults_covered);
    EXPECT_EQ(a.peak_nodes, b.peak_nodes);
    EXPECT_EQ(a.live_nodes, b.live_nodes);
    EXPECT_EQ(a.post_sift_nodes, b.post_sift_nodes);
    EXPECT_EQ(a.cache_lookups, b.cache_lookups);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_NEAR(a.cpu_ms, b.cpu_ms, 1e-3);
    EXPECT_NEAR(a.coverage, b.coverage, 1e-9);
  }
}

TEST(PerfJson, LegacyServeSectionStillParses) {
  // Schema-4 records could carry a `serve` object; it is no longer written,
  // and the parser skips it like any unknown key.
  const BenchRecord record = parse_record(
      "{\"schema\": 4, \"circuits\": [{\"id\": \"si/chu150\", "
      "\"faults_total\": 14}], \"serve\": {\"requests\": 120, "
      "\"cold_rps\": 3.25}}");
  ASSERT_EQ(record.circuits.size(), 1u);
  EXPECT_EQ(record.circuits[0].faults_total, 14u);
  EXPECT_EQ(to_json(record).find("\"serve\""), std::string::npos);
}

TEST(PerfJson, MalformedRecordsThrowLoudly) {
  EXPECT_THROW(parse_record(""), CheckError);
  EXPECT_THROW(parse_record("[]"), CheckError);
  EXPECT_THROW(parse_record("{\"schema\": 1}"), CheckError);  // no circuits
  EXPECT_THROW(parse_record("{\"circuits\": []}"), CheckError);  // no schema
  EXPECT_THROW(parse_record("{\"schema\": 1, \"circuits\": [{}]}"),
               CheckError);  // circuit without id
  EXPECT_THROW(parse_record("{\"schema\": 1, \"circuits\": [1]}"), CheckError);
  EXPECT_THROW(parse_record("{bad json"), CheckError);
  EXPECT_THROW(parse_record("{\"schema\": 1, \"circuits\": []} trailing"),
               CheckError);
}

// --- comparator ---------------------------------------------------------------

BenchRecord tiny_record() {
  BenchRecord record;
  record.host = "ci";
  record.threads = 1;
  CircuitRecord a;
  a.id = "si/alpha";
  a.faults_total = 20;
  a.faults_covered = 18;
  a.peak_nodes = 1000;
  a.cpu_ms = 100;
  CircuitRecord b;
  b.id = "bd/beta";
  b.faults_total = 30;
  b.faults_covered = 30;
  b.peak_nodes = 4000;
  b.cpu_ms = 10;  // below the per-circuit CPU floor
  record.circuits = {a, b};
  return record;
}

TEST(PerfCompare, IdenticalRecordsPass) {
  const BenchRecord record = tiny_record();
  const Comparison comparison = compare(record, record);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(comparison.failures.empty());
}

TEST(PerfCompare, CoverageDropFails) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].faults_covered = 17;
  const Comparison comparison = compare(baseline, current);
  EXPECT_FALSE(comparison.ok);
  ASSERT_EQ(comparison.failures.size(), 1u);
  EXPECT_NE(comparison.failures[0].find("coverage dropped"),
            std::string::npos);
}

TEST(PerfCompare, CoverageGainIsANote) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].faults_covered = 20;
  const Comparison comparison = compare(baseline, current);
  EXPECT_TRUE(comparison.ok);
  EXPECT_FALSE(comparison.notes.empty());
}

TEST(PerfCompare, NodeRegressionBeyondBoundFails) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].peak_nodes = 1251;  // > 1000 * 1.25
  EXPECT_FALSE(compare(baseline, current).ok);
  current.circuits[0].peak_nodes = 1250;  // exactly at the bound: passes
  EXPECT_TRUE(compare(baseline, current).ok);
}

TEST(PerfCompare, CpuGatesOnlyFireOnMatchingHostTags) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].cpu_ms = 1000;  // 10x the baseline, above the floor
  EXPECT_FALSE(compare(baseline, current).ok);

  // Different host tag: CPU is not comparable; nodes/coverage still gate.
  current.host = "laptop";
  const Comparison skipped = compare(baseline, current);
  EXPECT_TRUE(skipped.ok);
  EXPECT_TRUE(std::any_of(
      skipped.notes.begin(), skipped.notes.end(), [](const std::string& n) {
        return n.find("CPU gates skipped") != std::string::npos;
      }));

  // Sub-floor circuits never CPU-gate even on the same host.
  BenchRecord slow_small = baseline;
  slow_small.circuits[1].cpu_ms = 24;  // 2.4x but baseline is 10 ms < floor
  EXPECT_TRUE(compare(baseline, slow_small).ok);
}

TEST(PerfCompare, MissingCircuitAndChangedUniverseFail) {
  const BenchRecord baseline = tiny_record();
  BenchRecord missing = baseline;
  missing.circuits.pop_back();
  EXPECT_FALSE(compare(baseline, missing).ok);

  BenchRecord changed = baseline;
  changed.circuits[0].faults_total = 22;
  const Comparison comparison = compare(baseline, changed);
  EXPECT_FALSE(comparison.ok);
  EXPECT_NE(comparison.failures[0].find("fault universe changed"),
            std::string::npos);
}

TEST(PerfCompare, NewCircuitsAreNotesNotFailures) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  CircuitRecord extra;
  extra.id = "bench/extra";
  extra.faults_total = 4;
  extra.faults_covered = 4;
  extra.peak_nodes = 10;
  current.circuits.push_back(extra);
  const Comparison comparison = compare(baseline, current);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.notes.begin(), comparison.notes.end(),
      [](const std::string& n) {
        return n.find("bench/extra") != std::string::npos;
      }));
}

TEST(PerfCompare, TotalCpuGateCatchesDeathByAThousandCuts) {
  // Every circuit individually under the per-circuit radar (below floor or
  // under the bound), but the corpus total blows the budget.
  BenchRecord baseline = tiny_record();
  baseline.circuits[0].cpu_ms = 100;
  baseline.circuits[1].cpu_ms = 100;
  BenchRecord current = baseline;
  current.circuits[0].cpu_ms = 124;  // under 25% individually
  current.circuits[1].cpu_ms = 130;  // over, but paired with the other...
  const Comparison comparison = compare(baseline, current);
  // 254 vs 200 total = +27% > 25%: the total gate fires even though the
  // second circuit alone would also have fired — assert the total message
  // exists so the aggregate path is covered.
  EXPECT_FALSE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.failures.begin(), comparison.failures.end(),
      [](const std::string& f) {
        return f.find("total CPU regressed") != std::string::npos;
      }));
}

// --- schema 2: gave_up, host_cores, threads sweep ----------------------------

TEST(PerfJson, Schema2FieldsRoundTrip) {
  BenchRecord record = tiny_record();
  record.host_cores = 8;
  record.circuits[0].gave_up = 3;
  record.sweep = {{1, 400.0, 1.0, 1.0}, {4, 110.0, 3.6, 0.9}};
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.host_cores, 8u);
  EXPECT_EQ(parsed.circuits[0].gave_up, 3u);
  EXPECT_EQ(parsed.total_gave_up(), 3u);
  ASSERT_EQ(parsed.sweep.size(), 2u);
  EXPECT_EQ(parsed.sweep[1].threads, 4u);
  EXPECT_NEAR(parsed.sweep[1].cpu_ms, 110.0, 1e-3);
  EXPECT_NEAR(parsed.sweep[1].speedup, 3.6, 1e-6);
  EXPECT_NEAR(parsed.sweep[1].efficiency, 0.9, 1e-6);
}

TEST(PerfJson, Schema1RecordsParseWithDefaults) {
  // A record written before schema 2 has no host_cores / gave_up / sweep;
  // the parser must default them instead of rejecting the baseline file.
  const std::string old_record =
      "{\"schema\": 1, \"kernel\": \"complement-edge\", \"host\": \"ci\",\n"
      " \"threads\": 1,\n"
      " \"circuits\": [{\"id\": \"si/alpha\", \"faults_total\": 5,\n"
      "                \"faults_covered\": 5, \"peak_nodes\": 10}]}";
  const BenchRecord parsed = parse_record(old_record);
  EXPECT_EQ(parsed.schema, 1);
  EXPECT_EQ(parsed.host_cores, 0u);
  EXPECT_TRUE(parsed.sweep.empty());
  ASSERT_EQ(parsed.circuits.size(), 1u);
  EXPECT_EQ(parsed.circuits[0].gave_up, 0u);
}

TEST(PerfCompare, GaveUpChangesAreNotesNotFailures) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].gave_up = 4;  // caps newly truncating searches
  const Comparison comparison = compare(baseline, current);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.notes.begin(), comparison.notes.end(),
      [](const std::string& n) {
        return n.find("gave_up rose") != std::string::npos;
      }));
}

BenchRecord sweep_record(std::size_t host_cores) {
  BenchRecord record = tiny_record();
  record.host_cores = host_cores;
  record.sweep = {{1, 400.0, 1.0, 1.0},
                  {2, 210.0, 1.9, 0.95},
                  {4, 100.0, 4.0, 1.0}};
  return record;
}

TEST(PerfCompare, SpeedupRegressionBeyondBoundFails) {
  const BenchRecord baseline = sweep_record(/*host_cores=*/4);
  BenchRecord current = baseline;
  current.sweep[2].speedup = 2.9;  // < 4.0 * (1 - 0.25)
  const Comparison comparison = compare(baseline, current);
  EXPECT_FALSE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.failures.begin(), comparison.failures.end(),
      [](const std::string& f) {
        return f.find("scaling at threads=4") != std::string::npos;
      }));
  // Exactly at the bound: passes (same convention as the node gate).
  current.sweep[2].speedup = 3.0;
  EXPECT_TRUE(compare(baseline, current).ok);
}

TEST(PerfCompare, ScalingGatesSkipAcrossHostClasses) {
  const auto skipped_note = [](const Comparison& c) {
    return std::any_of(c.notes.begin(), c.notes.end(),
                       [](const std::string& n) {
                         return n.find("scaling gates skipped") !=
                                std::string::npos;
                       });
  };
  // Same tag, different core counts: curves are not comparable.
  const BenchRecord base4 = sweep_record(4);
  BenchRecord cur8 = sweep_record(8);
  cur8.sweep[2].speedup = 1.0;  // would fail if gated
  Comparison comparison = compare(base4, cur8);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(skipped_note(comparison));

  // Single-core host: no parallelism signal, never gates.
  const BenchRecord base1 = sweep_record(1);
  BenchRecord cur1 = sweep_record(1);
  cur1.sweep[2].speedup = 0.5;
  comparison = compare(base1, cur1);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(skipped_note(comparison));

  // Different host tag: skipped like the CPU gates.
  BenchRecord other_host = sweep_record(4);
  other_host.host = "laptop";
  other_host.sweep[2].speedup = 0.5;
  comparison = compare(base4, other_host);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(skipped_note(comparison));
}

TEST(PerfRun, ReordersCountSurvivesIntoTheRecord) {
  // Regression lock for the wiring bug where `reorders` was read from shard
  // 0 *before* the explicit sift pass and stayed 0 forever: with sifting
  // armed, the recorded count must be nonzero (the explicit post-run sift
  // alone performs at least one pass).
  const CorpusEntry entry = entry_by_id("bench/parity5");
  AtpgOptions options;
  options.reorder.enabled = true;
  options.reorder.trigger_nodes = 64;  // small enough to trip mid-run
  const CircuitRecord record = run_entry(entry, options);
  EXPECT_GT(record.reorders, 0u);
}

TEST(PerfSweep, RecordsCurveAndCrossChecksDeterminism) {
  const std::vector<CorpusEntry> corpus{entry_by_id("bench/c17")};
  AtpgOptions options;
  const BenchRecord record = run_sweep(corpus, options, "unit", {1, 2});
  EXPECT_GT(record.host_cores, 0u);
  ASSERT_EQ(record.circuits.size(), 1u);
  ASSERT_EQ(record.sweep.size(), 2u);
  EXPECT_EQ(record.sweep[0].threads, 1u);
  EXPECT_EQ(record.sweep[1].threads, 2u);
  EXPECT_NEAR(record.sweep[0].speedup, 1.0, 1e-9);
  EXPECT_NEAR(record.sweep[0].efficiency, 1.0, 1e-9);
  EXPECT_GT(record.sweep[1].speedup, 0.0);
  EXPECT_NEAR(record.sweep[1].efficiency, record.sweep[1].speedup / 2.0,
              1e-9);
  // The record's circuits come from the threads=1 point.
  EXPECT_EQ(record.threads, 1u);
}

TEST(PerfJson, Schema3FieldsRoundTrip) {
  BenchRecord record = tiny_record();
  record.circuits[0].base_nodes = 5000;
  record.circuits[0].delta_peak = 700;
  record.circuits[0].peak_resident_nodes = 7100;  // base + 3 shards' deltas
  record.sweep = {{1, 400.0, 1.0, 1.0, 5700},
                  {4, 100.0, 4.0, 1.0, 7100}};
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.schema, kSchemaVersion);
  ASSERT_EQ(parsed.circuits.size(), 2u);
  EXPECT_EQ(parsed.circuits[0].base_nodes, 5000u);
  EXPECT_EQ(parsed.circuits[0].delta_peak, 700u);
  EXPECT_EQ(parsed.circuits[0].peak_resident_nodes, 7100u);
  EXPECT_EQ(parsed.circuits[1].base_nodes, 0u);  // defaults survive
  ASSERT_EQ(parsed.sweep.size(), 2u);
  EXPECT_EQ(parsed.sweep[0].peak_resident_nodes, 5700u);
  EXPECT_EQ(parsed.sweep[1].peak_resident_nodes, 7100u);
  // Schema-1/2 records (no such keys) parse with zeroed defaults.
  const BenchRecord old = parse_record(
      "{\"schema\": 2, \"circuits\": [{\"id\": \"x\"}],"
      " \"sweep\": [{\"threads\": 4, \"cpu_ms\": 10}]}");
  EXPECT_EQ(old.circuits[0].peak_resident_nodes, 0u);
  EXPECT_EQ(old.sweep[0].peak_resident_nodes, 0u);
}

TEST(PerfJson, DoublesRoundTripBitExactly) {
  // max_digits10 formatting: parse(emit(x)) == x, not merely "close".
  BenchRecord record = tiny_record();
  record.circuits[0].coverage = 1.0 / 3.0;
  record.circuits[0].cpu_ms = 0.1 + 0.2;  // 0.30000000000000004
  record.circuits[0].cache_hit_rate = 0.7234567890123456;
  record.circuits[0].unique_load = 1e-17;
  record.sweep = {{1, 400.125, 1.0, 1.0, 10},
                  {2, 201.0, 1.9900497512437811, 0.99502487562189056, 12}};
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.circuits[0].coverage, record.circuits[0].coverage);
  EXPECT_EQ(parsed.circuits[0].cpu_ms, record.circuits[0].cpu_ms);
  EXPECT_EQ(parsed.circuits[0].cache_hit_rate,
            record.circuits[0].cache_hit_rate);
  EXPECT_EQ(parsed.circuits[0].unique_load, record.circuits[0].unique_load);
  ASSERT_EQ(parsed.sweep.size(), 2u);
  EXPECT_EQ(parsed.sweep[1].speedup, record.sweep[1].speedup);
  EXPECT_EQ(parsed.sweep[1].efficiency, record.sweep[1].efficiency);
  // And the emitted text is a fixed point: emit(parse(emit(x))) == emit(x).
  EXPECT_EQ(to_json(parsed), to_json(record));
}

TEST(PerfJson, NonFiniteDoublesClampToValidJson) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json::number(kNan), "0");
  EXPECT_EQ(json::number(kInf), "0");
  EXPECT_EQ(json::number(-kInf), "0");
  EXPECT_EQ(json::number(0.25), "0.25");

  // A poisoned record must still emit parseable JSON (operator<< would have
  // written the invalid tokens `nan` / `inf`).
  BenchRecord record = tiny_record();
  record.circuits[0].cache_hit_rate = kNan;
  record.circuits[0].coverage = kInf;
  record.sweep = {{1, 400.0, kInf, kNan, 10}};
  const std::string text = to_json(record);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  const BenchRecord parsed = parse_record(text);
  EXPECT_EQ(parsed.circuits[0].cache_hit_rate, 0.0);
  EXPECT_EQ(parsed.circuits[0].coverage, 0.0);
  EXPECT_EQ(parsed.sweep[0].speedup, 0.0);
  EXPECT_EQ(parsed.sweep[0].efficiency, 0.0);
}

TEST(PerfGuards, SafeRatioGuardsZeroDenominators) {
  EXPECT_EQ(safe_ratio(1.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(0.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(-3.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(3.0, 4.0), 0.75);
  // Non-finite quotients clamp even with a nonzero denominator.
  EXPECT_EQ(safe_ratio(std::numeric_limits<double>::infinity(), 2.0), 0.0);
  EXPECT_EQ(safe_ratio(std::numeric_limits<double>::quiet_NaN(), 2.0), 0.0);
}

TEST(PerfGuards, CacheHitRateGuardsZeroLookups) {
  ShardBddStats stats;  // a shard that never issued a cache lookup
  EXPECT_EQ(stats.cache_lookups, 0u);
  EXPECT_EQ(stats.cache_hit_rate(), 0.0);
  stats.cache_lookups = 8;
  stats.cache_hits = 2;
  EXPECT_EQ(stats.cache_hit_rate(), 0.25);
}

TEST(PerfCompare, MemoryGateLocksInTheResidentWin) {
  // The gate is self-contained within the current record's sweep: resident
  // peak at T >= 4 threads must stay under 0.6 x T x the threads=1 point.
  BenchRecord current = sweep_record(/*host_cores=*/8);
  current.sweep[0].peak_resident_nodes = 1000;  // threads=1 footprint
  current.sweep[1].peak_resident_nodes = 1100;  // threads=2: below the gate
  current.sweep[2].peak_resident_nodes = 2400;  // threads=4: == 0.6 * 4 * 1000
  const BenchRecord baseline = current;
  EXPECT_TRUE(compare(baseline, current).ok) << "exactly at the bound passes";

  current.sweep[2].peak_resident_nodes = 2401;  // one node over the bound
  const Comparison over = compare(baseline, current);
  EXPECT_FALSE(over.ok);
  EXPECT_TRUE(std::any_of(over.failures.begin(), over.failures.end(),
                          [](const std::string& f) {
                            return f.find("memory at threads=4") !=
                                   std::string::npos;
                          }));
}

TEST(PerfCompare, MemoryGateSkipsPreSchema3Sweeps) {
  // sweep_record() leaves peak_resident_nodes zeroed, like a parsed
  // schema-2 record: the gate must skip with a note, never fail.
  const BenchRecord record = sweep_record(/*host_cores=*/4);
  const Comparison comparison = compare(record, record);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.notes.begin(), comparison.notes.end(),
      [](const std::string& n) {
        return n.find("memory gates skipped") != std::string::npos;
      }));
}

TEST(PerfRun, Schema3MemoryFieldsArePopulatedAndComposed) {
  const CorpusEntry entry = entry_by_id("bench/c17");
  const CircuitRecord record = run_entry(entry, AtpgOptions{});
  EXPECT_GT(record.base_nodes, 0u)
      << "the frozen shared arena holds the encoding + CSSG substrate";
  EXPECT_EQ(record.peak_nodes, record.base_nodes + record.delta_peak)
      << "shard 0's resident watermark = base + its delta peak";
  EXPECT_GE(record.peak_resident_nodes, record.peak_nodes)
      << "corpus resident = base once + every shard's delta peak";
  EXPECT_GE(record.live_nodes, record.base_nodes)
      << "base nodes are permanently live";
}

// --- paper reproductions -----------------------------------------------------

/// One family's output at default options, run once per test binary.
const std::string& family_output(const std::string& name) {
  static std::map<std::string, std::string> outputs;
  auto it = outputs.find(name);
  if (it == outputs.end()) {
    std::ostringstream out;
    if (const Family* family = find_family(name))
      family->run(AtpgOptions{}, out);
    else
      ADD_FAILURE() << "family '" << name << "' is not registered";
    it = outputs.emplace(name, out.str()).first;
  }
  return it->second;
}

/// The lines of `text` that start with `prefix`.
std::vector<std::string> lines_starting(const std::string& text,
                                        const std::string& prefix) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (line.rfind(prefix, 0) == 0) lines.push_back(line);
  return lines;
}

/// The whitespace-separated tokens of every '|'-separated cell of a row.
std::vector<std::vector<std::string>> cells(const std::string& row) {
  std::vector<std::vector<std::string>> result;
  std::istringstream in(row);
  for (std::string cell; std::getline(in, cell, '|');) {
    std::istringstream tokens(cell);
    result.emplace_back();
    for (std::string token; tokens >> token;) result.back().push_back(token);
  }
  return result;
}

/// The single row of `family` that starts with `name` and a space.
std::vector<std::vector<std::string>> row_of(const std::string& family,
                                             const std::string& name) {
  const auto rows = lines_starting(family_output(family), name + " ");
  EXPECT_EQ(rows.size(), 1u) << family << ": rows for '" << name << "'";
  return rows.empty() ? std::vector<std::vector<std::string>>{}
                      : cells(rows.front());
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1))
    ++count;
  return count;
}

TEST(PerfFamilies, RegistryHoldsTheElevenReproductions) {
  std::set<std::string> names;
  for (const Family& family : families()) names.insert(family.name);
  EXPECT_EQ(names, (std::set<std::string>{
                       "table1", "table2", "fig1", "fig2", "baseline",
                       "ablation_architecture", "ablation_classify",
                       "ablation_detector", "ablation_k", "ablation_ordering",
                       "ablation_random"}));
  EXPECT_EQ(families().size(), names.size());
  EXPECT_EQ(find_family("no_such_family"), nullptr);
  EXPECT_STREQ(find_family("fig2")->name, "fig2");
}

TEST(PerfFamilies, EveryFamilyPrintsATitledTableAtDefaultOptions) {
  for (const Family& family : families()) {
    const std::string& text = family_output(family.name);
    const std::string title = text.substr(0, text.find('\n'));
    EXPECT_TRUE(title.rfind("Table ", 0) == 0 ||
                title.rfind("Figure ", 0) == 0 ||
                title.rfind("Baseline ", 0) == 0 ||
                title.rfind("Ablation: ", 0) == 0)
        << family.name << ": " << title;
    std::size_t rows = 0;
    for (const std::string& line : lines_starting(text, ""))
      if (line.find('|') != std::string::npos) ++rows;
    EXPECT_GE(rows, 8u) << family.name;
  }
}

TEST(PerfFamilies, Table1CoversEveryOutputFault) {
  const auto total = row_of("table1", "Total FC");
  ASSERT_GE(total.size(), 3u);
  EXPECT_EQ(total[1], std::vector<std::string>{"100.00%"});
  EXPECT_EQ(total[2], std::vector<std::string>{"95.74%"});
}

TEST(PerfFamilies, Table2DropsOnTheRedundantDesigns) {
  const auto total = row_of("table2", "Total FC");
  ASSERT_GE(total.size(), 3u);
  EXPECT_EQ(total[1], std::vector<std::string>{"50.58%"});
  EXPECT_EQ(total[2], std::vector<std::string>{"37.80%"});
}

TEST(PerfFamilies, Fig1ShowsRacesAndOscillations) {
  const std::string& text = family_output("fig1");
  EXPECT_EQ(count_of(text, "NON-CONFLUENT"), 2u);
  EXPECT_EQ(count_of(text, "OSCILLATES/UNSETTLED"), 5u);
}

TEST(PerfFamilies, Fig2PrunesTheFig1aTcsg) {
  EXPECT_EQ(lines_starting(family_output("fig2"), "fig1a circuit:"),
            std::vector<std::string>{
                "fig1a circuit: 7 stable states, 23 TCR pairs, 4 "
                "non-confluent pruned, 19 CSSG edges"});
}

TEST(PerfFamilies, BaselineIsOptimisticOnlyWhereTheCssgFlowIsNot) {
  // Columns: example | faults | gen valid optimistic | covered racy.
  EXPECT_EQ(row_of("baseline", "fig1a")[2],
            (std::vector<std::string>{"12", "12", "2"}));
  const auto rows = lines_starting(family_output("baseline"), "");
  std::size_t audited = 0;
  for (const std::string& row : rows) {
    const auto cols = cells(row);
    if (cols.size() != 4 || cols[3].size() != 2 || cols[3][1] == "racy")
      continue;
    EXPECT_EQ(cols[3][1], "0") << row;
    ++audited;
  }
  EXPECT_EQ(audited, 9u);
}

TEST(PerfFamilies, StandardCDecompositionOfVbe5bCoversNothing) {
  // Columns: example | pins cov cov% (atomic gC) | pins cov cov% (standard-C).
  const auto vbe5b = row_of("ablation_architecture", "vbe5b");
  ASSERT_EQ(vbe5b.size(), 3u);
  EXPECT_EQ(vbe5b[2], (std::vector<std::string>{"19", "0", "0.0%"}));
  EXPECT_NE(vbe5b[1][1], "0");
}

TEST(PerfFamilies, ClassifierNeverChangesCoverage) {
  std::size_t rows = 0;
  for (const std::string& name : bd_benchmark_names()) {
    const auto row = row_of("ablation_classify", name);
    ASSERT_EQ(row.size(), 4u) << name;
    EXPECT_EQ(row[2].front(), row[3].front()) << name;
    ++rows;
  }
  EXPECT_EQ(rows, 9u);
}

TEST(PerfFamilies, RandomTpgBudgetNeverChangesFinalCoverage) {
  // Columns: budget | rnd-cov% | final-cov% | 3-ph faults.
  std::size_t budgets = 0;
  for (const std::string& row :
       lines_starting(family_output("ablation_random"), "")) {
    const auto cols = cells(row);
    if (cols.size() != 4 || cols[0].size() != 1 || cols[0][0] == "budget")
      continue;
    EXPECT_EQ(cols[2], std::vector<std::string>{"95.7%"}) << row;
    ++budgets;
  }
  EXPECT_EQ(budgets, 8u);
}

TEST(PerfFamilies, ExactDetectorOutprovesTheTernaryScreen) {
  const auto total = row_of("ablation_detector", "Total");
  ASSERT_EQ(total.size(), 4u);
  EXPECT_EQ(total[2], std::vector<std::string>{"68.2%"});
  EXPECT_EQ(total[3], std::vector<std::string>{"95.7%"});
}

TEST(PerfFamilies, SettleBoundSaturatesByThree) {
  // Columns: example | k | edges | states | coverage.
  const auto rows = lines_starting(family_output("ablation_k"), "");
  std::size_t saturated = 0, short_cycle = 0;
  for (const std::string& row : rows) {
    const auto cols = cells(row);
    if (cols.size() != 5 || cols[1].empty() || cols[1][0] == "k") continue;
    if (std::stoul(cols[1][0]) >= 3) {
      EXPECT_EQ(cols[4][0], "100.0%") << row;
      ++saturated;
    } else if (std::stoul(cols[1][0]) == 1 && cols[4][0] != "100.0%") {
      ++short_cycle;  // chu150, ebergen, mmu
    }
  }
  EXPECT_EQ(saturated, 30u);
  EXPECT_EQ(short_cycle, 3u);
}

TEST(PerfFamilies, BlockedOrderPeaksHighestAndReorderReachesTheTitle) {
  // Columns: example | order | peak nodes | final live | post-sift | ...
  const auto rows = lines_starting(family_output("ablation_ordering"), "");
  std::map<std::string, std::map<std::string, std::size_t>> peak;
  for (const std::string& row : rows) {
    const auto cols = cells(row);
    if (cols.size() == 8 && cols[0].size() == 1 && cols[2].size() == 1 &&
        cols[2][0] != "peak")
      peak[cols[0][0]][cols[1][0]] = std::stoul(cols[2][0]);
  }
  ASSERT_EQ(peak.size(), 5u);
  for (const auto& [circuit, by_order] : peak) {
    ASSERT_EQ(by_order.size(), 4u) << circuit;
    for (const auto& [order, nodes] : by_order)
      EXPECT_LE(nodes, by_order.at("blocked")) << circuit << " " << order;
  }

  AtpgOptions reorder;
  reorder.reorder.enabled = true;
  std::ostringstream out;
  find_family("ablation_ordering")->run(reorder, out);
  EXPECT_EQ(out.str().rfind("Ablation: BDD variable ordering for the CSSG "
                            "construction (dynamic reordering on static "
                            "orders too)\n",
                            0),
            0u);
}

}  // namespace
}  // namespace xatpg::perf
