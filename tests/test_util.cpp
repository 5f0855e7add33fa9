#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/packed.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace xatpg {
namespace {

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(XATPG_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(XATPG_CHECK(1 + 1 == 3), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    XATPG_CHECK_MSG(false, "custom diagnostic " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom diagnostic 42"),
              std::string::npos);
  }
}

TEST(Check, WhatIncludesFileLineAndExpression) {
  try {
    XATPG_CHECK(2 + 2 == 5);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("check failed"), std::string::npos);
  }
}

TEST(Check, IsALogicError) {
  // Callers that only know std::logic_error must still be able to catch.
  EXPECT_THROW(XATPG_CHECK(false), std::logic_error);
}

TEST(Check, SideEffectsEvaluatedExactlyOnce) {
  int calls = 0;
  auto count = [&] {
    ++calls;
    return true;
  };
  XATPG_CHECK(count());
  EXPECT_EQ(calls, 1);
}

TEST(CheckDeathTest, UncaughtCheckTerminatesWithDiagnostic) {
  // A CheckError escaping a noexcept boundary must reach std::terminate with
  // the diagnostic visible on stderr (how a release-build tool dies when an
  // invariant is violated outside any try block).
  EXPECT_DEATH(
      { []() noexcept { XATPG_CHECK_MSG(false, "fatal invariant " << 7); }(); },
      "fatal invariant 7");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowZeroBoundThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), CheckError);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- packed rows -------------------------------------------------------------

TEST(Packed, SignalOrderSortMatchesVectorOrder) {
  // Random 70-signal rows (two words, the second partly used) after a kept
  // prefix row: sorting the packed rows in signal order must give the
  // std::vector<bool> order of the states they pack, and leave the prefix.
  constexpr std::size_t kSignals = 70;
  const std::size_t width = state_words(kSignals);
  Rng rng(11);
  std::vector<std::vector<bool>> states;
  for (int r = 0; r < 200; ++r) {
    std::vector<bool> state(kSignals);
    // Few distinct low signals, so rows often tie on a long prefix.
    for (std::size_t s = 0; s < kSignals; ++s)
      state[s] = s < 60 ? (s % 7 == 0 && rng.flip()) : rng.flip();
    states.push_back(state);
  }
  const std::vector<StateWord> prefix(width, ~StateWord{0});
  std::vector<StateWord> rows = prefix;
  for (const auto& state : states) {
    const auto words = pack_state(state);
    rows.insert(rows.end(), words.begin(), words.end());
  }
  sort_rows_signal_order(rows, width, width);
  std::sort(states.begin(), states.end());
  ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(), rows.begin()));
  for (std::size_t r = 0; r < states.size(); ++r)
    EXPECT_EQ(unpack_state(rows.data() + (r + 1) * width, kSignals),
              states[r])
        << "row " << r;
  EXPECT_FALSE(signal_order_less(rows.data(), rows.data(), width));
}

TEST(Strings, SplitWs) {
  const auto tokens = split_ws("  foo bar\tbaz  ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "foo");
  EXPECT_EQ(tokens[1], "bar");
  EXPECT_EQ(tokens[2], "baz");
}

TEST(Strings, SplitWsEmpty) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a::b:", ':');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("INPUT(a)", "INPUT("));
  EXPECT_FALSE(starts_with("IN", "INPUT("));
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(JsonNumber, NonFiniteClampsAndFiniteRoundTripsBitExactly) {
  // operator<< would write the invalid tokens `nan` / `inf`.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json::number(kNan), "0");
  EXPECT_EQ(json::number(kInf), "0");
  EXPECT_EQ(json::number(-kInf), "0");
  EXPECT_EQ(json::number(0.25), "0.25");
  // max_digits10 formatting: parse(number(x)) == x, not merely "close".
  for (const double x : {1.0 / 3.0, 0.1 + 0.2, 0.7234567890123456, 1e-17,
                         1.9900497512437811})
    EXPECT_EQ(json::parse(json::number(x)).number, x) << json::number(x);
}

}  // namespace
}  // namespace xatpg
