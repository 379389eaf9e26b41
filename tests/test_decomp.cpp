// Network decomposition (random-shift substitution for [PS92]/[AGLP89]).
#include <gtest/gtest.h>

#include <cmath>

#include "decomp/network_decomposition.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace deltacol {
namespace {

class DecompTest : public ::testing::TestWithParam<int> {};

TEST_P(DecompTest, ValidOnRandomGraphs) {
  Rng gen(static_cast<std::uint64_t>(GetParam()));
  const Graph g = random_graph_max_degree(500, 5, 1.7, gen);
  RoundLedger ledger;
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const auto nd = random_shift_decomposition(g, 0.25, rng, ledger, "nd");
  EXPECT_TRUE(is_valid_decomposition(g, nd));
  EXPECT_GT(nd.num_clusters(), 0);
  EXPECT_GT(nd.num_colors, 0);
  EXPECT_GT(ledger.total(), 0);
  // Weak diameter O(log n / beta): generous constant.
  EXPECT_LE(nd.max_diameter,
            static_cast<int>(16.0 * std::log(500.0) / 0.25));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompTest, ::testing::Range(1, 6));

TEST(Decomp, ClustersArePartition) {
  Rng gen(3);
  const Graph g = grid_graph(15, 15, true);
  RoundLedger ledger;
  Rng rng(4);
  const auto nd = random_shift_decomposition(g, 0.3, rng, ledger, "nd");
  const auto sets = nd.cluster_vertex_sets();
  std::size_t total = 0;
  for (const auto& s : sets) total += s.size();
  EXPECT_EQ(total, static_cast<std::size_t>(g.num_vertices()));
}

TEST(Decomp, LargerBetaSmallerClusters) {
  Rng gen(5);
  const Graph g = random_graph_max_degree(800, 4, 1.5, gen);
  RoundLedger l1, l2;
  Rng r1(6), r2(6);
  const auto fine = random_shift_decomposition(g, 0.8, r1, l1, "nd");
  const auto coarse = random_shift_decomposition(g, 0.1, r2, l2, "nd");
  EXPECT_GT(fine.num_clusters(), coarse.num_clusters());
}

TEST(Decomp, ClusterGraph) {
  // Path split into two clusters must yield one cluster edge.
  const Graph g = path_graph(4);
  const std::vector<int> cluster{0, 0, 1, 1};
  const Graph cg = build_cluster_graph(g, cluster, 2);
  EXPECT_EQ(cg.num_vertices(), 2);
  EXPECT_EQ(cg.num_edges(), 1);
}

TEST(Decomp, ValidatorRejectsBadColoring) {
  const Graph g = path_graph(4);
  NetworkDecomposition nd;
  nd.cluster = {0, 0, 1, 1};
  nd.cluster_color = {0, 0};  // adjacent clusters, same color
  nd.num_colors = 1;
  EXPECT_FALSE(is_valid_decomposition(g, nd));
  nd.cluster_color = {0, 1};
  nd.num_colors = 2;
  EXPECT_TRUE(is_valid_decomposition(g, nd));
}

}  // namespace
}  // namespace deltacol
