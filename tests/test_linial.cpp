// Linial's O(Delta^2) coloring: correctness, palette size, round count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "coloring/linial.h"
#include "graph/generators.h"
#include "local/round_ledger.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace deltacol {
namespace {

class LinialTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LinialTest, ProperSmallPaletteFewRounds) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n + d));
  const Graph g = random_regular(n, d, rng);
  RoundLedger ledger;
  const LinialResult res = linial_coloring(g, ledger);
  EXPECT_TRUE(is_proper_with_palette(g, res.coloring, res.num_colors));
  // Fixpoint palette is (next_prime(~2 Delta))^2 = O(Delta^2).
  EXPECT_LE(res.num_colors, 25 * (d + 1) * (d + 1));
  // O(log* n) rounds: generous absolute cap.
  EXPECT_LE(res.rounds, 8);
  EXPECT_EQ(ledger.total(), res.rounds);
  EXPECT_EQ(ledger.phase_total("linial"), res.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinialTest,
    ::testing::Combine(::testing::Values(32, 256, 2048),
                       ::testing::Values(3, 4, 8)));

TEST(Linial, WorksOnPathAndCycle) {
  for (const Graph& g : {path_graph(100), cycle_graph(101)}) {
    RoundLedger ledger;
    const LinialResult res = linial_coloring(g, ledger);
    EXPECT_TRUE(is_proper_with_palette(g, res.coloring, res.num_colors));
    EXPECT_LE(res.num_colors, 49);  // O(Delta^2) with Delta = 2
  }
}

TEST(Linial, LargeDegreeSmallGraph) {
  const Graph g = complete_bipartite(10, 10);
  RoundLedger ledger;
  const LinialResult res = linial_coloring(g, ledger);
  EXPECT_TRUE(is_proper_with_palette(g, res.coloring, res.num_colors));
}

TEST(Linial, DeterministicAcrossRuns) {
  Rng rng(5);
  const Graph g = random_regular(128, 4, rng);
  RoundLedger l1, l2;
  const auto a = linial_coloring(g, l1);
  const auto b = linial_coloring(g, l2);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.num_colors, b.num_colors);
}

TEST(ColorReduction, ReducesToDeltaPlusOne) {
  Rng rng(77);
  const Graph g = random_regular(512, 4, rng);
  RoundLedger ledger;
  const auto lin = linial_coloring(g, ledger);
  const auto red =
      reduce_to_delta_plus_one(g, lin.coloring, lin.num_colors, ledger);
  EXPECT_EQ(red.num_colors, 5);
  EXPECT_TRUE(is_proper_with_palette(g, red.coloring, 5));
  // One round per eliminated class.
  EXPECT_EQ(ledger.phase_total("color-reduction"), lin.num_colors - 5);
}

TEST(ColorReduction, NoopWhenAlreadySmall) {
  const Graph g = cycle_graph(6);
  const Coloring c{0, 1, 0, 1, 0, 1};
  RoundLedger ledger;
  const auto red = reduce_to_delta_plus_one(g, c, 2, ledger);
  EXPECT_EQ(red.coloring, c);
  EXPECT_EQ(ledger.total(), 0);
}

TEST(ColorReduction, RejectsImproperInput) {
  const Graph g = path_graph(3);
  RoundLedger ledger;
  EXPECT_THROW(reduce_to_delta_plus_one(g, {0, 0, 1}, 2, ledger),
               ContractViolation);
}

TEST(ColorReduction, ScheduleHelperEndToEnd) {
  Rng rng(78);
  const Graph g = random_regular(1024, 6, rng);
  RoundLedger ledger;
  const auto sched = delta_plus_one_schedule(g, ledger);
  EXPECT_EQ(sched.num_colors, 7);
  EXPECT_TRUE(is_proper_with_palette(g, sched.coloring, 7));
  EXPECT_EQ(ledger.total(), sched.rounds);
}

// Reference: Linial's rounds with each polynomial re-derived from the color
// in 64-bit arithmetic, for the vertex and for every neighbor at every
// candidate point. Same parameter rule, same first-valid-point choice.
int reference_eval_poly(std::uint64_t color, std::uint64_t q, int degree_bound,
                        std::uint64_t x) {
  std::uint64_t digits[64];
  for (int i = 0; i < degree_bound; ++i) {
    digits[i] = color % q;
    color /= q;
  }
  std::uint64_t acc = 0;
  for (int i = degree_bound - 1; i >= 0; --i) {
    acc = (acc * x + digits[i]) % q;
  }
  return static_cast<int>(acc);
}

LinialResult reference_linial(const Graph& g) {
  const int n = g.num_vertices();
  const int delta = std::max(1, g.max_degree());
  LinialResult res;
  res.coloring.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) res.coloring[static_cast<std::size_t>(v)] = v;
  std::uint64_t m = std::max<std::uint64_t>(2, static_cast<std::uint64_t>(n));
  for (;;) {
    std::uint64_t q = 0;
    int d = 0;
    for (int dd = 2; dd <= 40; ++dd) {
      const auto root = static_cast<std::uint64_t>(
          std::ceil(std::pow(static_cast<double>(m), 1.0 / dd)));
      std::uint64_t qq = next_prime(std::max<std::uint64_t>(
          root, static_cast<std::uint64_t>(delta) * (dd - 1) + 1));
      while (ipow(qq, static_cast<unsigned>(dd)) < m) qq = next_prime(qq + 1);
      if (q == 0 || qq * qq < q * q) {
        q = qq;
        d = dd;
      }
    }
    if (q * q >= m) break;
    Coloring next(static_cast<std::size_t>(n), kUncolored);
    for (int v = 0; v < n; ++v) {
      const auto cv =
          static_cast<std::uint64_t>(res.coloring[static_cast<std::size_t>(v)]);
      for (std::uint64_t x = 0; x < q; ++x) {
        const int pv = reference_eval_poly(cv, q, d, x);
        bool ok = true;
        for (int u : g.neighbors(v)) {
          const auto cu = static_cast<std::uint64_t>(
              res.coloring[static_cast<std::size_t>(u)]);
          if (cu != cv && reference_eval_poly(cu, q, d, x) == pv) {
            ok = false;
            break;
          }
        }
        if (ok) {
          next[static_cast<std::size_t>(v)] = static_cast<int>(x * q) + pv;
          break;
        }
      }
    }
    res.coloring = std::move(next);
    m = q * q;
    ++res.rounds;
  }
  res.num_colors = static_cast<int>(m);
  return res;
}

class LinialReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LinialReferenceTest, MatchesSixtyFourBitPerNeighborEvaluation) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(3 * n + d));
  const Graph g = random_regular(n, d, rng);
  const LinialResult want = reference_linial(g);
  ASSERT_GE(want.rounds, 1);
  ASSERT_EQ(count_uncolored(want.coloring), 0);
  RoundLedger ledger;
  const LinialResult got = linial_coloring(g, ledger);
  EXPECT_EQ(got.coloring, want.coloring);
  EXPECT_EQ(got.num_colors, want.num_colors);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(ledger.phase_total("linial"), want.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    RandomRegular, LinialReferenceTest,
    ::testing::Combine(::testing::Values(4096, 131072),
                       ::testing::Values(3, 4, 8, 16)));

TEST(Linial, RoundsGrowSlowlyWithN) {
  // log*-type growth: going from 2^6 to 2^16 vertices should add at most a
  // couple of rounds.
  Rng rng(9);
  const Graph small = random_regular(64, 4, rng);
  const Graph big = random_regular(65536, 4, rng);
  RoundLedger ls, lb;
  const auto rs = linial_coloring(small, ls);
  const auto rb = linial_coloring(big, lb);
  EXPECT_LE(rb.rounds, rs.rounds + 3);
}

}  // namespace
}  // namespace deltacol
