// Induced subgraphs, vertex removal, power graphs, disjoint unions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/frontier_bfs.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Ops, InducedSubgraphMapsBothWays) {
  const Graph g = cycle_graph(6);
  const auto sub = induced_subgraph(g, std::vector<int>{1, 2, 3, 5});
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 1-2, 2-3 survive; 5 is isolated
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sub.from_parent[sub.to_parent[i]], i);
  }
  EXPECT_EQ(sub.from_parent[0], -1);
}

TEST(Ops, InducedSubgraphDedupes) {
  const Graph g = path_graph(4);
  const auto sub = induced_subgraph(g, std::vector<int>{2, 2, 1});
  EXPECT_EQ(sub.graph.num_vertices(), 2);
  EXPECT_EQ(sub.graph.num_edges(), 1);
}

// Reference: the induced subgraph built through an edge list and
// Graph::from_edges, with the vertex maps derived independently.
Subgraph reference_induced_subgraph(const Graph& g, std::vector<int> vertices) {
  Subgraph ref;
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  ref.to_parent = vertices;
  ref.from_parent.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ref.from_parent[static_cast<std::size_t>(vertices[i])] =
        static_cast<int>(i);
  }
  std::vector<Edge> edges;
  for (const auto& [u, v] : g.edge_list()) {
    const int a = ref.from_parent[static_cast<std::size_t>(u)];
    const int b = ref.from_parent[static_cast<std::size_t>(v)];
    if (a >= 0 && b >= 0) edges.emplace_back(b, a);
  }
  ref.graph = Graph::from_edges(static_cast<int>(vertices.size()), edges);
  return ref;
}

void expect_same_subgraph(const Subgraph& got, const Subgraph& want,
                          const std::string& where) {
  ASSERT_EQ(got.graph.num_vertices(), want.graph.num_vertices()) << where;
  EXPECT_EQ(got.graph.num_edges(), want.graph.num_edges()) << where;
  EXPECT_EQ(got.graph.max_degree(), want.graph.max_degree()) << where;
  EXPECT_EQ(got.graph.min_degree(), want.graph.min_degree()) << where;
  for (int v = 0; v < want.graph.num_vertices(); ++v) {
    const auto a = got.graph.neighbors(v);
    const auto b = want.graph.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << where << " row " << v;
  }
  EXPECT_EQ(got.to_parent, want.to_parent) << where;
  EXPECT_EQ(got.from_parent, want.from_parent) << where;
}

TEST(Ops, InducedSubgraphMatchesFromEdgesReferenceOverZoo) {
  Rng rng(314);
  auto zoo = generator_zoo();
  zoo.push_back({"torus-12x12", grid_graph(12, 12, true)});
  zoo.push_back({"hypercube-5", hypercube_graph(5)});
  zoo.push_back({"empty", Graph::from_edges(0, std::vector<Edge>{})});
  for (const auto& [name, g] : zoo) {
    const int n = g.num_vertices();
    std::vector<std::vector<int>> subsets;
    subsets.emplace_back();  // empty
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    subsets.push_back(all);
    std::vector<int> shuffled = all;
    rng.shuffle(shuffled);
    subsets.push_back(shuffled);  // all vertices, unsorted
    for (int trial = 0; trial < 6 && n > 0; ++trial) {
      // Random picks with replacement: unsorted, with duplicates.
      const int k = rng.next_int(1, 2 * n);
      std::vector<int> pick;
      for (int i = 0; i < k; ++i) pick.push_back(rng.next_int(0, n - 1));
      subsets.push_back(pick);
    }
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      const std::string where = name + " subset " + std::to_string(s);
      expect_same_subgraph(induced_subgraph(g, subsets[s]),
                           reference_induced_subgraph(g, subsets[s]), where);
    }
    if (n > 0) {
      EXPECT_THROW(induced_subgraph(g, std::vector<int>{0, n}),
                   ContractViolation)
          << name;
    }
    EXPECT_THROW(induced_subgraph(g, std::vector<int>{-1}), ContractViolation)
        << name;
  }
}

TEST(Ops, RemoveVertices) {
  const Graph g = clique_graph(5);
  const auto rest = remove_vertices(g, std::vector<int>{0, 3});
  EXPECT_EQ(rest.graph.num_vertices(), 3);
  EXPECT_EQ(rest.graph.num_edges(), 3);  // K3 remains
}

TEST(Ops, PowerGraphMatchesBfsDistances) {
  Rng rng(12);
  const Graph g = random_graph_max_degree(40, 4, 1.4, rng);
  for (int k : {1, 2, 3}) {
    const Graph p = power_graph(g, k);
    for (int v = 0; v < g.num_vertices(); ++v) {
      const auto d = bfs_distances(g, v);
      for (int u = 0; u < g.num_vertices(); ++u) {
        if (u == v) continue;
        const bool expect = d[u] != kUnreachable && d[u] <= k;
        EXPECT_EQ(p.has_edge(v, u), expect)
            << "k=" << k << " pair (" << v << "," << u << ")";
      }
    }
  }
}

TEST(Ops, PowerGraphOfPathIsBandGraph) {
  const Graph p2 = power_graph(path_graph(6), 2);
  EXPECT_TRUE(p2.has_edge(0, 2));
  EXPECT_FALSE(p2.has_edge(0, 3));
  EXPECT_EQ(p2.num_edges(), 5 + 4);
}

TEST(Ops, DisjointUnionShiftsIds) {
  const Graph g = disjoint_union(path_graph(3), cycle_graph(3));
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 2 + 3);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

}  // namespace
}  // namespace deltacol
