// Coloring vocabulary, greedy, and the exact brute-force list colorer.
#include <gtest/gtest.h>

#include "coloring/brute.h"
#include "coloring/coloring.h"
#include "coloring/greedy.h"
#include "graph/generators.h"
#include "util/check.h"

namespace deltacol {
namespace {

TEST(Coloring, ProperChecks) {
  const Graph g = cycle_graph(4);
  Coloring c{0, 1, 0, 1};
  EXPECT_TRUE(is_proper_complete(g, c));
  EXPECT_TRUE(is_proper_with_palette(g, c, 2));
  c[2] = 1;
  EXPECT_FALSE(is_proper_partial(g, c));
  c[2] = kUncolored;
  EXPECT_TRUE(is_proper_partial(g, c));
  EXPECT_FALSE(is_proper_complete(g, c));
  EXPECT_EQ(count_uncolored(c), 1);
  EXPECT_EQ(num_colors_used(c), 2);
}

TEST(Coloring, ValidatorDiagnostics) {
  const Graph g = path_graph(3);
  EXPECT_THROW(validate_delta_coloring(g, {0, 1, kUncolored}, 2),
               ContractViolation);
  EXPECT_THROW(validate_delta_coloring(g, {0, 1, 5}, 2), ContractViolation);
  EXPECT_THROW(validate_delta_coloring(g, {0, 0, 1}, 2), ContractViolation);
  EXPECT_NO_THROW(validate_delta_coloring(g, {0, 1, 0}, 2));
}

TEST(Coloring, FreeColors) {
  const Graph g = star_graph(3);
  Coloring c{kUncolored, 0, 1, 0};
  const auto fc = free_colors(g, c, 0, 4);
  EXPECT_EQ(fc, (std::vector<Color>{2, 3}));
  EXPECT_EQ(first_free_color(g, c, 0, 4), 2);
  EXPECT_EQ(first_free_color(g, c, 0, 2), std::nullopt);

  // Only colors in [0, palette_size) count as used: negative colors other
  // than kUncolored, and colors past the palette, block nothing.
  const Graph s5 = star_graph(5);
  const Coloring odd{kUncolored, -2, 1, -7, 9, 0};
  EXPECT_EQ(free_colors(s5, odd, 0, 4), (std::vector<Color>{2, 3}));
  EXPECT_EQ(first_free_color(s5, odd, 0, 4), 2);
  EXPECT_EQ(free_colors(s5, odd, 0, 2), std::vector<Color>{});
  EXPECT_EQ(first_free_color(s5, odd, 0, 2), std::nullopt);
  EXPECT_EQ(free_colors(s5, odd, 0, 0), std::vector<Color>{});
  EXPECT_EQ(first_free_color(s5, odd, 0, 0), std::nullopt);
}

TEST(Coloring, FirstFreeColorPastOneWord) {
  // A vertex of degree 130 whose neighbors block colors 0..129 except 70
  // and 128: the scan must cross 64-color windows.
  const Graph g = star_graph(130);
  Coloring c(131, kUncolored);
  for (int i = 1; i <= 130; ++i) c[static_cast<std::size_t>(i)] = i - 1;
  c[71] = 129;   // frees 70, blocks 129 twice
  c[129] = 500;  // frees 128
  EXPECT_EQ(first_free_color(g, c, 0, 200), 70);
  EXPECT_EQ(first_free_color(g, c, 0, 70), std::nullopt);
  c[129] = 128;
  c[71] = 70;
  EXPECT_EQ(first_free_color(g, c, 0, 200), 130);
  EXPECT_EQ(first_free_color(g, c, 0, 130), std::nullopt);
  EXPECT_EQ(first_free_color(g, c, 0, 131), 130);
  const auto fc = free_colors(g, c, 0, 133);
  EXPECT_EQ(fc, (std::vector<Color>{130, 131, 132}));
}

TEST(Coloring, RespectsLists) {
  ListAssignment lists{{0, 2}, {1}};
  EXPECT_TRUE(respects_lists({2, 1}, lists));
  EXPECT_FALSE(respects_lists({1, 1}, lists));
  EXPECT_FALSE(respects_lists({2, kUncolored}, lists));
}

TEST(Greedy, DeltaPlusOneAlwaysWorks) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = random_regular(60, 5, rng);
    const Coloring c = greedy_coloring(g);
    EXPECT_TRUE(is_proper_with_palette(g, c, 6));
  }
}

TEST(Greedy, RespectsPrecoloring) {
  const Graph g = path_graph(3);
  Coloring c{kUncolored, 1, kUncolored};
  greedy_color_in_order(g, {0, 2}, 2, c);
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[1], 1);
  EXPECT_EQ(c[2], 0);
}

TEST(Greedy, ThrowsWhenPaletteTooSmall) {
  const Graph g = clique_graph(4);
  Coloring c(4, kUncolored);
  EXPECT_THROW(greedy_color_in_order(g, {0, 1, 2, 3}, 3, c),
               ContractViolation);
}

TEST(Greedy, DecreasingBfsOrderEndsAtRoot) {
  const Graph g = path_graph(5);
  const auto order = decreasing_bfs_order(g, 2);
  EXPECT_EQ(order.back(), 2);
  EXPECT_EQ(order.size(), 5u);
  // Distances never increase along the order.
  EXPECT_TRUE(order.front() == 0 || order.front() == 4);
}

TEST(Brute, OddCycleNeedsThreeColors) {
  const Graph g = cycle_graph(5);
  EXPECT_FALSE(is_k_colorable(g, 2));
  EXPECT_TRUE(is_k_colorable(g, 3));
}

TEST(Brute, EvenCycleTwoColorable) {
  EXPECT_TRUE(is_k_colorable(cycle_graph(6), 2));
}

TEST(Brute, CliqueChromaticNumber) {
  EXPECT_FALSE(is_k_colorable(clique_graph(4), 3));
  EXPECT_TRUE(is_k_colorable(clique_graph(4), 4));
}

TEST(Brute, PetersenIsThreeChromatic) {
  EXPECT_FALSE(is_k_colorable(petersen_graph(), 2));
  EXPECT_TRUE(is_k_colorable(petersen_graph(), 3));
}

TEST(Brute, ListInstanceWithPartialFixed) {
  const Graph g = path_graph(3);
  const ListAssignment lists{{0}, {0, 1}, {0}};
  Coloring partial{kUncolored, kUncolored, kUncolored};
  const auto c = brute_force_list_coloring(g, lists, partial);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(respects_lists(*c, lists));
  EXPECT_TRUE(is_proper_complete(g, *c));
}

TEST(Brute, DetectsInfeasibleLists) {
  // Odd cycle, identical 2-color lists: infeasible.
  const Graph g = cycle_graph(5);
  const ListAssignment lists(5, {0, 1});
  EXPECT_FALSE(brute_force_list_coloring(g, lists).has_value());
}

TEST(Brute, EvenCycleTightListsFeasible) {
  const Graph g = cycle_graph(6);
  const ListAssignment lists(6, {0, 1});
  const auto c = brute_force_list_coloring(g, lists);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(is_proper_complete(g, *c));
}

TEST(Brute, BudgetGuardFires) {
  // A hard instance with a tiny budget must throw, not hang.
  Rng rng(33);
  const Graph g = random_regular(30, 5, rng);
  const ListAssignment lists(30, {0, 1, 2});
  EXPECT_THROW(brute_force_list_coloring(g, lists, /*max_nodes=*/3),
               ContractViolation);
}

}  // namespace
}  // namespace deltacol
