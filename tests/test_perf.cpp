// Perf suite: the corpus's shape, the ratio guards, and the paper
// reproductions (xatpg bench --family) with the facts they show.  The
// corpus's per-circuit outcomes are golden values in test_golden.
#include "perf/perf.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "benchmarks/benchmarks.hpp"
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
