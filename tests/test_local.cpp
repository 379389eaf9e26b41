// The LOCAL-model simulator: round ledger, synchronous engine, gather oracle.
#include <gtest/gtest.h>

#include "graph/frontier_bfs.h"
#include "graph/generators.h"
#include "local/neighborhood.h"
#include "local/round_ledger.h"
#include "runtime/parallel_sync_engine.h"
#include "util/check.h"

namespace deltacol {
namespace {

TEST(RoundLedger, ChargesAndAggregates) {
  RoundLedger l;
  l.charge(3, "a");
  l.charge(2, "b");
  l.charge(4, "a");
  EXPECT_EQ(l.total(), 9);
  EXPECT_EQ(l.phase_total("a"), 7);
  EXPECT_EQ(l.phase_total("b"), 2);
  EXPECT_EQ(l.phase_total("missing"), 0);
  EXPECT_EQ(l.breakdown().size(), 2u);
  EXPECT_THROW(l.charge(-1, "x"), ContractViolation);
}

TEST(RoundLedger, MergeAndReset) {
  RoundLedger a, b;
  a.charge(1, "x");
  b.charge(2, "x");
  b.charge(3, "y");
  a.merge(b);
  EXPECT_EQ(a.total(), 6);
  EXPECT_EQ(a.phase_total("x"), 3);
  a.reset();
  EXPECT_EQ(a.total(), 0);
  EXPECT_TRUE(a.breakdown().empty());
}

TEST(RoundLedger, ReportMentionsPhases) {
  RoundLedger l;
  l.charge(5, "phase-one");
  const auto rep = l.report();
  EXPECT_NE(rep.find("phase-one"), std::string::npos);
  EXPECT_NE(rep.find("5"), std::string::npos);
}

// A flood-fill over the message-passing engine must compute BFS distances
// in exactly eccentricity(source) rounds — the definitional LOCAL-model
// behavior.
TEST(ParallelSyncEngine, FloodFillMatchesBfs) {
  const Graph g = grid_graph(5, 6, false);
  struct State {
    int dist = -1;
  };
  const int rounds = eccentricity(g, 0);
  using Engine = ParallelSyncEngine<State, int>;
  RoundLedger ledger2;
  Engine eng2(g, ledger2, "flood");
  eng2.state(0).dist = 0;
  for (int t = 0; t < rounds; ++t) {
    eng2.round(
        [&g](int v, const State& s, Engine::Outbox& out) {
          if (s.dist >= 0) {
            for (int u : g.neighbors(v)) out.emplace_back(u, s.dist + 1);
          }
        },
        [](int, State& s, Engine::Inbox inbox) {
          for (const auto& [from, d] : inbox) {
            if (s.dist < 0 || d < s.dist) s.dist = d;
          }
        });
  }
  const auto want = bfs_distances(g, 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(eng2.state(v).dist, want[v]) << "vertex " << v;
  }
  EXPECT_EQ(ledger2.total(), rounds);
}

TEST(ParallelSyncEngine, RejectsNonNeighborMessages) {
  const Graph g = path_graph(4);
  RoundLedger ledger;
  ParallelSyncEngine<int, int> eng(g, ledger, "bad");
  EXPECT_THROW(
      eng.round(
          [](int v, const int&, ParallelSyncEngine<int, int>::Outbox& out) {
            if (v == 0) out.emplace_back(3, 42);  // 3 is not a neighbor of 0
          },
          [](int, int&, ParallelSyncEngine<int, int>::Inbox) {}),
      ContractViolation);
}

TEST(NeighborhoodOracle, ChargesGatherRadius) {
  const Graph g = cycle_graph(12);
  RoundLedger ledger;
  NeighborhoodOracle oracle(g, ledger);
  oracle.begin_gather(3, "gather");
  EXPECT_EQ(ledger.total(), 3);
  const auto sub = oracle.ball_subgraph(0, 3);
  EXPECT_EQ(sub.graph.num_vertices(), 7);  // 0, +-1, +-2, +-3
  // Radius above the gathered bound is a contract violation.
  EXPECT_THROW(oracle.ball_subgraph(0, 4), ContractViolation);
}

}  // namespace
}  // namespace deltacol
