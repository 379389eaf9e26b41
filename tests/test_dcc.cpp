// Degree-choosable component machinery (Definitions 6-9, DESIGN.md §4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "dcc/dcc.h"
#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "local/round_ledger.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

// The r-ball analysis as it stood before the allocation-free rewrite, kept
// as the oracle of the differential test below: every ball becomes a fresh
// Graph, its blocks are classified on induced subgraphs, a second BFS inside
// the ball gives the distances, and the radii come from induced subgraphs
// of g. It has no whole-graph Gallai fast path, so every ball is analyzed.
namespace oracle {

std::vector<std::vector<int>> dcc_blocks(const Graph& g) {
  std::vector<std::vector<int>> out;
  for (const auto& block : block_decomposition(g).blocks) {
    const auto sub = induced_subgraph(g, block);
    if (!is_clique(sub.graph) && !is_odd_cycle(sub.graph)) out.push_back(block);
  }
  return out;
}

std::vector<int> extract_small_dcc(const Graph& g,
                                   const std::vector<int>& block) {
  if (block.size() <= 6) return block;
  const auto n = g.num_vertices();
  std::vector<char> in_block(n, 0);
  for (int v : block) in_block[v] = 1;
  std::vector<int> depth(n, -1);
  std::vector<int> parent(n, -1);
  std::vector<int> order{block.front()};
  depth[block.front()] = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    for (int w : g.neighbors(u)) {
      if (in_block[w] && depth[w] == -1) {
        depth[w] = depth[u] + 1;
        parent[w] = u;
        order.push_back(w);
      }
    }
  }
  auto cycle_of = [&](int u, int w) {
    std::vector<int> pu{u}, pw{w};
    int a = u, b = w;
    while (depth[b] > depth[a]) {
      b = parent[b];
      pw.push_back(b);
    }
    while (a != b) {
      a = parent[a];
      b = parent[b];
      pu.push_back(a);
      pw.push_back(b);
    }
    pw.pop_back();
    pu.insert(pu.end(), pw.begin(), pw.end());
    return pu;
  };
  std::vector<int> best;
  for (int u : order) {
    for (int w : g.neighbors(u)) {
      if (!in_block[w]) continue;
      if (depth[w] != depth[u] + 1 || parent[w] == u) continue;
      auto cyc = cycle_of(u, w);
      if (induces_clique(g, cyc)) continue;
      if (best.empty() || cyc.size() < best.size()) best = std::move(cyc);
    }
  }
  if (best.empty()) return block;
  std::sort(best.begin(), best.end());
  return best;
}

DccDetection detect_dccs(const Graph& g, int r) {
  const int n = g.num_vertices();
  DccDetection out;
  out.has_dcc.assign(n, false);
  out.selected.assign(n, -1);
  BfsScratch ball_scratch;
  BfsScratch sub_scratch;
  std::map<std::vector<int>, int> dcc_index;
  for (int v = 0; v < n; ++v) {
    ball_scratch.run(g, v, r);
    const auto ball_vertices = ball_scratch.order();
    std::vector<int> local_index(n, -1);
    for (std::size_t i = 0; i < ball_vertices.size(); ++i) {
      local_index[ball_vertices[i]] = static_cast<int>(i);
    }
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < ball_vertices.size(); ++i) {
      for (int w : g.neighbors(ball_vertices[i])) {
        const int j = local_index[w];
        if (j > static_cast<int>(i)) edges.emplace_back(static_cast<int>(i), j);
      }
    }
    const Graph sub =
        Graph::from_edges(static_cast<int>(ball_vertices.size()), edges);
    const auto blocks = oracle::dcc_blocks(sub);
    if (blocks.empty()) continue;
    sub_scratch.run(sub, 0);
    int best_dist = -1;
    const std::vector<int>* best_block = nullptr;
    std::vector<int> best_key;
    for (const auto& block : blocks) {
      int d = sub.num_vertices();
      std::vector<int> key;
      for (int x : block) {
        d = std::min(d, sub_scratch.dist(x));
        key.push_back(ball_vertices[x]);
      }
      std::sort(key.begin(), key.end());
      if (best_dist == -1 || d < best_dist ||
          (d == best_dist && key < best_key)) {
        best_dist = d;
        best_block = &block;
        best_key = std::move(key);
      }
    }
    std::vector<int> best_set;
    for (int x : oracle::extract_small_dcc(sub, *best_block)) {
      best_set.push_back(ball_vertices[x]);
    }
    std::sort(best_set.begin(), best_set.end());
    out.has_dcc[v] = true;
    const auto [it, inserted] =
        dcc_index.try_emplace(best_set, static_cast<int>(out.dccs.size()));
    if (inserted) out.dccs.push_back(best_set);
    out.selected[v] = it->second;
  }
  for (const auto& dcc : out.dccs) {
    out.max_dcc_radius = std::max(out.max_dcc_radius,
                                  graph_radius(induced_subgraph(g, dcc).graph));
  }
  return out;
}

}  // namespace oracle

// Every field of the rewritten detect_dccs equals the oracle's, at every
// radius and with and without a pool.
void expect_matches_oracle(const std::string& name, const Graph& g) {
  ThreadPool pool(4);
  for (int r = 1; r <= 4; ++r) {
    const auto want = oracle::detect_dccs(g, r);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      RoundLedger ledger;
      const auto got = detect_dccs(g, r, ledger, "dcc", p);
      const std::string where =
          name + " r=" + std::to_string(r) + (p != nullptr ? " T=4" : " T=1");
      EXPECT_EQ(got.has_dcc, want.has_dcc) << where;
      EXPECT_EQ(got.selected, want.selected) << where;
      EXPECT_EQ(got.dccs, want.dccs) << where;
      EXPECT_EQ(got.max_dcc_radius, want.max_dcc_radius) << where;
    }
  }
}

TEST(Dcc, DetectMatchesPerBallGraphOracleOverZoo) {
  Rng rng(2026);
  Graph k5s = clique_graph(5);
  for (int i = 0; i < 3; ++i) k5s = disjoint_union(k5s, clique_graph(5));
  const std::pair<std::string, Graph> zoo[] = {
      {"regular-2000-8", random_regular(2000, 8, rng)},
      {"gallai-300-4", random_gallai_tree(300, 4, rng)},
      {"triangle-cactus", triangle_cactus(300)},
      {"sparse-400-6", random_graph_max_degree(400, 6, 1.8, rng)},
      {"torus-30x30", grid_graph(30, 30, true)},
      {"hypercube-6", hypercube_graph(6)},
      {"petersen", petersen_graph()},
      {"4xK5", k5s},
  };
  for (const auto& [name, g] : zoo) expect_matches_oracle(name, g);
}

TEST(Dcc, DetectMatchesOracleOnTargetedBalls) {
  // Each shape sits next to a far-away hypercube, so the whole graph is
  // never a Gallai tree and the shape's own balls go through the per-ball
  // analysis. At r = 4 every ball of a shape covers the whole shape.
  Rng rng(5);
  GraphBuilder k4_minus_edge(4);
  for (const auto& [u, v] :
       {Edge{0, 1}, Edge{0, 2}, Edge{0, 3}, Edge{1, 2}, Edge{1, 3}}) {
    k4_minus_edge.add_edge(u, v);
  }
  struct Shape {
    std::string name;
    Graph g;
    bool is_dcc;
  };
  const Shape shapes[] = {
      {"tree", random_tree(40, 4, rng), false},
      {"C4", cycle_graph(4), true},
      {"C6", cycle_graph(6), true},
      {"C5", cycle_graph(5), false},
      {"K4", clique_graph(4), false},
      {"K4-e", k4_minus_edge.build(), true},
  };
  for (const auto& shape : shapes) {
    const Graph g = disjoint_union(shape.g, hypercube_graph(3));
    expect_matches_oracle(shape.name, g);
    RoundLedger ledger;
    const auto det = detect_dccs(g, 4, ledger, "dcc");
    for (int v = 0; v < shape.g.num_vertices(); ++v) {
      EXPECT_EQ(det.has_dcc[static_cast<std::size_t>(v)], shape.is_dcc)
          << shape.name << " vertex " << v;
    }
  }
}

TEST(Dcc, IsDccShapes) {
  EXPECT_TRUE(is_dcc(cycle_graph(6)));           // even cycle
  EXPECT_FALSE(is_dcc(cycle_graph(7)));          // odd cycle
  EXPECT_FALSE(is_dcc(clique_graph(5)));         // clique
  EXPECT_TRUE(is_dcc(theta_graph(1, 2, 3)));     // theta
  EXPECT_TRUE(is_dcc(complete_bipartite(2, 3))); // K_{2,3}
  EXPECT_FALSE(is_dcc(path_graph(4)));           // not 2-connected
  EXPECT_FALSE(is_dcc(star_graph(4)));
  EXPECT_TRUE(is_dcc(hypercube_graph(3)));
  EXPECT_TRUE(is_dcc(petersen_graph()));
  EXPECT_TRUE(is_dcc(clique_ring(3, 4)));
  // Triangle with pendant: not 2-connected.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  EXPECT_FALSE(is_dcc(b.build()));
}

TEST(Dcc, DccBlocksAgreeWithGallaiTest) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_graph_max_degree(30, 4, 1.4, rng);
    EXPECT_EQ(dcc_blocks(g).empty(), is_gallai_tree(g)) << "trial " << trial;
  }
}

TEST(Dcc, BallContainsDcc) {
  // In a big even cycle, radius must reach halfway to see the cycle.
  const Graph g = cycle_graph(12);
  EXPECT_FALSE(ball_contains_dcc(g, 0, 5));
  EXPECT_TRUE(ball_contains_dcc(g, 0, 6));
  // Trees never contain DCCs.
  Rng rng(2);
  const Graph t = random_tree(100, 4, rng);
  for (int v = 0; v < 100; v += 7) EXPECT_FALSE(ball_contains_dcc(t, v, 5));
  // Gallai trees never contain DCCs at any radius.
  const Graph gt = random_gallai_tree(80, 4, rng);
  for (int v = 0; v < gt.num_vertices(); v += 9) {
    EXPECT_FALSE(ball_contains_dcc(gt, v, 4));
  }
}

TEST(Dcc, DetectInvariants) {
  Rng rng(77);
  const Graph g = random_regular(300, 4, rng);
  RoundLedger ledger;
  const auto det = detect_dccs(g, 2, ledger, "dcc");
  EXPECT_EQ(ledger.total(), 3);  // r + 1
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(det.has_dcc[v], ball_contains_dcc(g, v, 2)) << "vertex " << v;
    EXPECT_EQ(det.has_dcc[v], det.selected[v] != -1);
  }
  std::set<std::vector<int>> unique(det.dccs.begin(), det.dccs.end());
  EXPECT_EQ(unique.size(), det.dccs.size());
  for (const auto& d : det.dccs) {
    const auto sub = induced_subgraph(g, d);
    EXPECT_TRUE(is_dcc(sub.graph));
    EXPECT_LE(graph_radius(sub.graph), det.max_dcc_radius);
  }
}

TEST(Dcc, SelectionIsDeterministic) {
  Rng rng(78);
  const Graph g = random_regular(200, 4, rng);
  RoundLedger l1, l2;
  const auto a = detect_dccs(g, 2, l1, "dcc");
  const auto b = detect_dccs(g, 2, l2, "dcc");
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.dccs, b.dccs);
}

TEST(Dcc, VirtualGraphEdges) {
  // Two DCC vertex sets sharing a vertex => edge; far apart => none.
  const Graph g = path_graph(10);  // host only provides adjacency
  const std::vector<std::vector<int>> dccs{{0, 1, 2}, {2, 3}, {7, 8}};
  const Graph vg = build_dcc_virtual_graph(g, dccs);
  EXPECT_EQ(vg.num_vertices(), 3);
  EXPECT_TRUE(vg.has_edge(0, 1));   // share vertex 2
  EXPECT_FALSE(vg.has_edge(0, 2));  // distance > 1
  EXPECT_FALSE(vg.has_edge(1, 2));  // 3-7 not adjacent
  // Adjacent-but-disjoint sets are connected too.
  const std::vector<std::vector<int>> dccs2{{0, 1}, {2, 3}};
  const Graph vg2 = build_dcc_virtual_graph(g, dccs2);
  EXPECT_TRUE(vg2.has_edge(0, 1));  // edge 1-2 of the path joins them
}

TEST(Dcc, TorusBallsSeeFourCycles) {
  const Graph g = grid_graph(8, 8, true);
  RoundLedger ledger;
  const auto det = detect_dccs(g, 2, ledger, "dcc");
  // Every torus vertex lies on a 4-cycle: all balls contain DCCs.
  for (int v = 0; v < g.num_vertices(); ++v) EXPECT_TRUE(det.has_dcc[v]);
}

}  // namespace
}  // namespace deltacol
