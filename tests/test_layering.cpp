// The layering driver shared by every algorithm (paper Section 3).
#include <gtest/gtest.h>

#include <algorithm>

#include "coloring/linial.h"
#include "core/layering.h"
#include "graph/frontier_bfs.h"
#include "graph/generators.h"
#include "list_coloring_reference.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Layering, LayersAreDistances) {
  const Graph g = grid_graph(7, 7, false);
  const Layering l = build_layers(g, {24}, -1);  // center
  const auto d = bfs_distances(g, 24);
  for (int v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(l.layer[v], d[v]);
  EXPECT_EQ(l.num_layers, 7);  // distances 0..6
  std::size_t total = 0;
  for (const auto& m : l.members) total += m.size();
  EXPECT_EQ(total, 49u);
}

TEST(Layering, DepthCapLeavesRemainder) {
  const Graph g = path_graph(10);
  const Layering l = build_layers(g, {0}, 3);
  EXPECT_EQ(l.num_layers, 4);
  EXPECT_EQ(l.layer[3], 3);
  EXPECT_EQ(l.layer[4], kNoLayer);
}

TEST(Layering, RestrictedBfsBlocksDisallowed) {
  const Graph g = path_graph(7);
  std::vector<bool> allowed(7, true);
  allowed[4] = false;
  const Layering l = build_layers_restricted(g, {2}, -1, allowed);
  EXPECT_EQ(l.layer[3], 1);
  EXPECT_EQ(l.layer[4], kNoLayer);
  EXPECT_EQ(l.layer[5], kNoLayer);  // cut off behind 4
  EXPECT_EQ(l.layer[0], 2);
}

TEST(Layering, MultipleBaseVertices) {
  const Graph g = path_graph(9);
  const Layering l = build_layers(g, {0, 8}, -1);
  EXPECT_EQ(l.layer[4], 4);
  EXPECT_EQ(l.layer[6], 2);
  EXPECT_EQ(l.members[0].size(), 2u);
}

TEST(Layering, MembersAscendById) {
  Rng rng(9);
  const Graph g = random_regular(400, 5, rng);
  const Layering l = build_layers(g, {377, 12, 250}, -1);
  for (int i = 0; i < l.num_layers; ++i) {
    const auto& m = l.members[static_cast<std::size_t>(i)];
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end())) << "layer " << i;
    for (int v : m) EXPECT_EQ(l.layer[static_cast<std::size_t>(v)], i);
  }
}

class LayerColoringTest : public ::testing::TestWithParam<int> {};

TEST_P(LayerColoringTest, ReverseColoringLeavesOnlyBaseUncolored) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = random_regular(300, 4, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  // Base = a couple of scattered vertices.
  const std::vector<int> base{0, 100, 200};
  const Layering l = build_layers(g, base, -1);
  Coloring c(300, kUncolored);
  RoundLedger ledger;
  Rng rng2(17);
  color_layers_in_reverse(g, l, 4, lin.coloring, lin.num_colors,
                          ListEngine::kDeterministic, &rng2, c, ledger, "t");
  // Everything except (at most) the base is colored, properly.
  EXPECT_TRUE(is_proper_partial(g, c));
  for (int v = 0; v < 300; ++v) {
    if (l.layer[v] >= 1) {
      EXPECT_NE(c[v], kUncolored) << v;
    }
  }
  for (int v : base) EXPECT_EQ(c[v], kUncolored);
  EXPECT_GT(ledger.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayerColoringTest, ::testing::Values(1, 2, 3));

TEST(LayerColoring, RandomizedEngineToo) {
  Rng rng(4);
  const Graph g = random_regular(200, 4, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  const Layering l = build_layers(g, {0}, -1);
  Coloring c(200, kUncolored);
  RoundLedger ledger;
  Rng rng2(5);
  color_layers_in_reverse(g, l, 4, lin.coloring, lin.num_colors,
                          ListEngine::kRandomized, &rng2, c, ledger, "t");
  EXPECT_TRUE(is_proper_partial(g, c));
  EXPECT_EQ(count_uncolored(c), 1);  // just the base vertex
}

TEST(LayerColoring, VertexSetInstanceSkipsColored) {
  const Graph g = cycle_graph(6);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  Coloring c(6, kUncolored);
  c[0] = 0;
  RoundLedger ledger;
  color_vertex_set_as_list_instance(g, {0, 1, 2, 3, 4, 5}, 3, lin.coloring,
                                    lin.num_colors, ListEngine::kDeterministic,
                                    nullptr, c, ledger, "t");
  EXPECT_EQ(c[0], 0);
  EXPECT_TRUE(is_proper_complete(g, c));
}

// Random instances over a random partial coloring, each engine against
// its explicit-list engine on the induced copy (list_coloring_reference.h),
// with the same Rng seed: with palette max degree + 1 every instance is
// (deg+1) whatever the outside colors are, so the pre-colored vertices may
// even clash. The sparse graphs are large enough that the entry check, the
// class sweeps and the trial passes take their pooled paths; the
// circulant's palette above 64 takes the multi-word free-color scans.
class ListInstanceEngine : public ::testing::TestWithParam<ListEngine> {};

TEST_P(ListInstanceEngine, InPlaceMatchesInducedReference) {
  const ListEngine engine = GetParam();
  ThreadPool pool(4);
  for (int d : {4, 7, 80}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed * 31 + static_cast<std::uint64_t>(d));
      std::vector<int> offsets(static_cast<std::size_t>(d / 2));
      for (int i = 0; i < d / 2; ++i) offsets[static_cast<std::size_t>(i)] = i + 1;
      const Graph g = d < 64 ? random_regular(4000, d, rng)
                             : circulant_graph(240, offsets);
      const int n = g.num_vertices();
      const int delta = g.max_degree() + 1;
      RoundLedger tmp;
      const auto lin = delta_plus_one_schedule(g, tmp);
      Coloring start(static_cast<std::size_t>(n), kUncolored);
      for (int v = 0; v < n; ++v) {
        if (rng.next_bool(0.3)) {
          start[static_cast<std::size_t>(v)] =
              static_cast<Color>(rng.next_below(static_cast<std::uint64_t>(delta)));
        }
      }
      std::vector<int> vertices;
      for (int v = 0; v < n; ++v) {
        if (rng.next_bool(0.6)) vertices.push_back(v);
      }
      Coloring want = start;
      RoundLedger want_ledger;
      Rng want_rng(seed + 100);
      reference::reference_instance(g, vertices, delta, lin.coloring,
                                    lin.num_colors, engine, &want_rng, want,
                                    want_ledger);
      // The next draw after the run: equal iff the streams were consumed
      // alike.
      const std::uint64_t want_next = want_rng.next_u64();
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        Coloring got = start;
        RoundLedger got_ledger;
        Rng got_rng(seed + 100);
        color_vertex_set_as_list_instance(g, vertices, delta, lin.coloring,
                                          lin.num_colors, engine, &got_rng,
                                          got, got_ledger, "t", p);
        EXPECT_EQ(got, want) << "d=" << d << " seed=" << seed;
        EXPECT_EQ(got_ledger.total(), want_ledger.total());
        EXPECT_EQ(got_rng.next_u64(), want_next)
            << "d=" << d << " seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ListInstanceEngine,
                         ::testing::Values(ListEngine::kDeterministic,
                                           ListEngine::kRandomized));

TEST(ListInstance, OutOfRangeVertexThrowsBeforeAnyWrite) {
  const Graph g = cycle_graph(6);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  for (int bad : {-1, 6, 1 << 20}) {
    Coloring c(6, kUncolored);
    RoundLedger ledger;
    EXPECT_THROW(color_vertex_set_as_list_instance(
                     g, {0, 1, bad, 2}, 3, lin.coloring, lin.num_colors,
                     ListEngine::kDeterministic, nullptr, c, ledger, "t"),
                 ContractViolation)
        << bad;
    EXPECT_EQ(c, Coloring(6, kUncolored));
    EXPECT_EQ(ledger.total(), 0);
  }
  Coloring short_c(5, kUncolored);
  RoundLedger ledger;
  EXPECT_THROW(color_vertex_set_as_list_instance(
                   g, {0, 1}, 3, lin.coloring, lin.num_colors,
                   ListEngine::kDeterministic, nullptr, short_c, ledger, "t"),
               ContractViolation);
}

TEST(ListInstance, DuplicateAndUnsortedVerticesMatchTheSortedSet) {
  Rng rng(12);
  const Graph g = random_regular(120, 4, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  std::vector<int> sorted_set;
  for (int v = 0; v < 120; v += 3) sorted_set.push_back(v);
  std::vector<int> messy = sorted_set;
  std::reverse(messy.begin(), messy.end());
  messy.insert(messy.end(), sorted_set.begin(), sorted_set.begin() + 10);
  for (ListEngine engine : {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    Coloring want(120, kUncolored);
    Coloring got(120, kUncolored);
    RoundLedger want_ledger;
    RoundLedger got_ledger;
    Rng want_rng(3);
    Rng got_rng(3);
    color_vertex_set_as_list_instance(g, sorted_set, 5, lin.coloring,
                                      lin.num_colors, engine, &want_rng, want,
                                      want_ledger, "t");
    color_vertex_set_as_list_instance(g, messy, 5, lin.coloring,
                                      lin.num_colors, engine, &got_rng, got,
                                      got_ledger, "t");
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_ledger.total(), want_ledger.total());
    EXPECT_TRUE(is_proper_partial(g, got));
    for (int v : sorted_set) EXPECT_NE(got[static_cast<std::size_t>(v)], kUncolored);
  }
}

TEST(ListInstance, TooFewFreeColorsThrowsAndLeavesCUntouched) {
  // 4-cycle 0-1-2-3, palette 2: vertex 1 sees colors 0 and 1 on its
  // neighbors, so its list is empty.
  const Graph g = cycle_graph(4);
  const Coloring schedule{0, 1, 0, 1};
  for (ListEngine engine : {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    Coloring c{0, kUncolored, 1, kUncolored};
    RoundLedger ledger;
    Rng rng(1);
    EXPECT_THROW(color_vertex_set_as_list_instance(g, {1, 3}, 2, schedule, 2,
                                                   engine, &rng, c, ledger,
                                                   "t"),
                 ContractViolation);
    EXPECT_EQ(c, (Coloring{0, kUncolored, 1, kUncolored}));
  }
  // Instance neighbors count toward the degree: the middle of an
  // uncolored path has 2 instance neighbors and only 2 colors.
  for (ListEngine engine : {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    const Graph path = path_graph(3);
    Coloring c(3, kUncolored);
    RoundLedger ledger;
    Rng rng(1);
    EXPECT_THROW(color_vertex_set_as_list_instance(path, {0, 1, 2}, 2,
                                                   Coloring{0, 1, 0}, 2, engine,
                                                   &rng, c, ledger, "t"),
                 ContractViolation);
    EXPECT_EQ(c, Coloring(3, kUncolored));
  }
  // Repeated neighbor colors block one color, not two: with both
  // neighbors on color 0, vertex 1 still has color 1.
  Coloring c{0, kUncolored, 0, kUncolored};
  RoundLedger ledger;
  color_vertex_set_as_list_instance(g, {1, 3}, 2, schedule, 2,
                                    ListEngine::kDeterministic, nullptr, c,
                                    ledger, "t");
  EXPECT_EQ(c, (Coloring{0, 1, 0, 1}));

  // The same past 64 colors: the center of a 70-leaf star with palette 70.
  const Graph star = star_graph(70);
  const Coloring star_schedule(71, 0);
  Coloring distinct(71, kUncolored);
  for (int i = 1; i <= 70; ++i) distinct[static_cast<std::size_t>(i)] = i - 1;
  EXPECT_THROW(color_vertex_set_as_list_instance(
                   star, {0}, 70, star_schedule, 1, ListEngine::kDeterministic,
                   nullptr, distinct, ledger, "t"),
               ContractViolation);
  EXPECT_EQ(distinct[0], kUncolored);
  Coloring repeated = distinct;
  repeated[70] = 3;  // color 69 is now free
  color_vertex_set_as_list_instance(star, {0}, 70, star_schedule, 1,
                                    ListEngine::kDeterministic, nullptr,
                                    repeated, ledger, "t");
  EXPECT_EQ(repeated[0], 69);
}

TEST(ListInstance, ImproperScheduleThrowsAndLeavesCUntouched) {
  const Graph g = path_graph(4);
  // 1 and 2 are adjacent instance vertices in one schedule class.
  const Coloring clash{0, 1, 1, 0};
  // A schedule color outside [0, schedule_colors).
  const Coloring out_of_palette{0, 1, 2, 0};
  for (ListEngine engine : {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    for (const Coloring* schedule : {&clash, &out_of_palette}) {
      Coloring c(4, kUncolored);
      RoundLedger ledger;
      Rng rng(1);
      EXPECT_THROW(color_vertex_set_as_list_instance(g, {0, 1, 2, 3}, 3,
                                                     *schedule, 2, engine,
                                                     &rng, c, ledger, "t"),
                   ContractViolation);
      EXPECT_EQ(c, Coloring(4, kUncolored));
      EXPECT_EQ(ledger.total(), 0);
    }
    // A class clash across the instance boundary is harmless: vertex 2 is
    // colored already, so the instance {0, 1} has no edge inside one class.
    Coloring c{kUncolored, kUncolored, 2, kUncolored};
    RoundLedger ledger;
    Rng rng(1);
    color_vertex_set_as_list_instance(g, {0, 1}, 3, clash, 2, engine, &rng, c,
                                      ledger, "t");
    EXPECT_TRUE(is_proper_partial(g, c));
    EXPECT_NE(c[0], kUncolored);
    EXPECT_NE(c[1], kUncolored);
    if (engine == ListEngine::kDeterministic) {
      EXPECT_EQ(ledger.total(), 2);
    }
  }
}

}  // namespace
}  // namespace deltacol
