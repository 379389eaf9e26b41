// Distributed (deg+1)-list coloring with implicit lists: the deterministic
// class-sweep rule and the randomized trial rule (Theorems 18/19
// stand-ins), each checked against its explicit-list reference engine.
#include <gtest/gtest.h>

#include <numeric>

#include "coloring/linial.h"
#include "coloring/list_coloring.h"
#include "graph/generators.h"
#include "list_coloring_reference.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

std::vector<int> all_vertices(const Graph& g) {
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// The explicit lists the implicit palette stands for on an uncolored graph.
ListAssignment palette_lists(const Graph& g, Palette palette) {
  ListAssignment lists(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (Color x = 0; x < palette(g, v); ++x) {
      lists[static_cast<std::size_t>(v)].push_back(x);
    }
  }
  return lists;
}

struct Instance {
  Graph g;
  Coloring schedule;
  int schedule_colors = 0;
};

Instance make_instance(int n, int d, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.g = random_graph_max_degree(n, d, 1.5, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(inst.g, tmp);
  inst.schedule = lin.coloring;
  inst.schedule_colors = lin.num_colors;
  return inst;
}

// Whole-graph instances, both palettes the library passes (a uniform one,
// as the (Delta+1) schedule does, and deg + 1, as the cluster graph of the
// network decomposition does), serial and pooled: the coloring, the rounds
// and the Rng stream must equal the explicit-list reference's.
class ListColoringTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ListColoringTest, EnginesMatchExplicitListReference) {
  const auto [n, d, seed] = GetParam();
  const auto inst = make_instance(n, d, static_cast<std::uint64_t>(seed));
  const auto all = all_vertices(inst.g);
  ThreadPool pool(4);
  for (Palette palette :
       {Palette::uniform(d + 1), Palette::degree_plus_one()}) {
    const ListAssignment lists = palette_lists(inst.g, palette);
    Coloring want_det(static_cast<std::size_t>(n), kUncolored);
    RoundLedger want_det_ledger;
    reference::det_list_coloring(inst.g, lists, inst.schedule,
                                 inst.schedule_colors, want_det,
                                 want_det_ledger);
    Coloring want_rand(static_cast<std::size_t>(n), kUncolored);
    RoundLedger want_rand_ledger;
    Rng want_rng(static_cast<std::uint64_t>(seed) + 99);
    reference::rand_list_coloring(inst.g, lists, inst.schedule,
                                  inst.schedule_colors, want_rng, want_rand,
                                  want_rand_ledger);
    const std::uint64_t want_next = want_rng.next_u64();
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Coloring det(static_cast<std::size_t>(n), kUncolored);
      RoundLedger det_ledger;
      det_list_coloring(inst.g, all, palette, inst.schedule,
                        inst.schedule_colors, det, det_ledger, "test", p);
      EXPECT_TRUE(is_proper_complete(inst.g, det));
      EXPECT_TRUE(respects_lists(det, lists));
      EXPECT_EQ(det, want_det);
      EXPECT_EQ(det_ledger.total(), inst.schedule_colors);

      Coloring rand(static_cast<std::size_t>(n), kUncolored);
      RoundLedger rand_ledger;
      Rng rng(static_cast<std::uint64_t>(seed) + 99);
      rand_list_coloring(inst.g, all, palette, inst.schedule,
                         inst.schedule_colors, rng, rand, rand_ledger, "test",
                         p);
      EXPECT_TRUE(is_proper_complete(inst.g, rand));
      EXPECT_TRUE(respects_lists(rand, lists));
      EXPECT_EQ(rand, want_rand);
      EXPECT_EQ(rand_ledger.total(), want_rand_ledger.total());
      EXPECT_EQ(rng.next_u64(), want_next);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListColoringTest,
    ::testing::Combine(::testing::Values(24, 96, 300),
                       ::testing::Values(3, 4, 6),
                       ::testing::Values(1, 2)));

TEST(ListColoring, RespectsPrecoloredVertices) {
  const Graph g = cycle_graph(6);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  for (bool randomized : {false, true}) {
    Coloring c(6, kUncolored);
    c[0] = 2;
    RoundLedger ledger;
    Rng rng(5);
    const std::vector<int> todo{1, 2, 3, 4, 5};
    if (randomized) {
      rand_list_coloring(g, todo, Palette::uniform(3), lin.coloring,
                         lin.num_colors, rng, c, ledger, "t");
    } else {
      det_list_coloring(g, todo, Palette::uniform(3), lin.coloring,
                        lin.num_colors, c, ledger, "t");
    }
    EXPECT_EQ(c[0], 2);
    EXPECT_TRUE(is_proper_complete(g, c));
  }
}

TEST(ListColoring, ThrowsOnUnderfullListsAndLeavesCUntouched) {
  // deg-sized palettes on an odd cycle cannot be completed greedily.
  const Graph g = cycle_graph(5);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  const auto all = all_vertices(g);
  for (bool randomized : {false, true}) {
    Coloring c(5, kUncolored);
    RoundLedger ledger;
    Rng rng(1);
    if (randomized) {
      EXPECT_THROW(rand_list_coloring(g, all, Palette::uniform(2),
                                      lin.coloring, lin.num_colors, rng, c,
                                      ledger, "t"),
                   ContractViolation);
    } else {
      EXPECT_THROW(det_list_coloring(g, all, Palette::uniform(2), lin.coloring,
                                     lin.num_colors, c, ledger, "t"),
                   ContractViolation);
    }
    EXPECT_EQ(c, Coloring(5, kUncolored));
    EXPECT_EQ(ledger.total(), 0);
  }
}

TEST(ListColoring, RejectsMalformedInstances) {
  const Graph g = path_graph(4);
  const Coloring schedule{0, 1, 0, 1};
  const Palette palette = Palette::uniform(3);
  RoundLedger ledger;
  // Not strictly ascending, out of range, or a member already colored.
  for (const std::vector<int>& todo :
       {std::vector<int>{2, 1}, std::vector<int>{1, 1}, std::vector<int>{0, 4},
        std::vector<int>{-1, 0}, std::vector<int>{0, 3}}) {
    Coloring c{kUncolored, kUncolored, kUncolored, 1};
    EXPECT_THROW(det_list_coloring(g, todo, palette, schedule, 2, c, ledger,
                                   "t"),
                 ContractViolation);
    EXPECT_EQ(c, (Coloring{kUncolored, kUncolored, kUncolored, 1}));
  }
  Coloring short_c(3, kUncolored);
  EXPECT_THROW(det_list_coloring(g, {0}, palette, schedule, 2, short_c,
                                 ledger, "t"),
               ContractViolation);
  EXPECT_EQ(ledger.total(), 0);
}

TEST(ListColoring, DegreePlusOnePaletteStaysBelowDegree) {
  Rng rng(8);
  const Graph g = random_graph_max_degree(500, 9, 2.0, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  Coloring c(500, kUncolored);
  RoundLedger ledger;
  rand_list_coloring(g, all_vertices(g), Palette::degree_plus_one(),
                     lin.coloring, lin.num_colors, rng, c, ledger, "t");
  EXPECT_TRUE(is_proper_complete(g, c));
  for (int v = 0; v < 500; ++v) EXPECT_LE(c[v], g.degree(v)) << v;
}

TEST(ListColoring, RandomizedMatchesLogNRoundBudget) {
  Rng grng(31);
  const Graph g = random_regular(4096, 4, grng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  Coloring c(4096, kUncolored);
  RoundLedger ledger;
  Rng rng(7);
  rand_list_coloring(g, all_vertices(g), Palette::uniform(5), lin.coloring,
                     lin.num_colors, rng, c, ledger, "t");
  EXPECT_TRUE(is_proper_complete(g, c));
  // 4 log2 n + 16 is the internal cap before deterministic fallback; on
  // deg+1 instances the trial engine should finish well under it.
  EXPECT_LE(ledger.total(), 4 * 12 + 16);
}

}  // namespace
}  // namespace deltacol
