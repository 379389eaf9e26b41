// E6 — Lemmas 12/15: in DCC-free, (near-)regular r-balls, BFS trees expand:
// level r holds at least (Delta-1)^{r/2} vertices (Lemma 15), and at least
// (Delta-2)^{r/2} after the marking process removes marked vertices
// (Lemma 12).
//
// Series: measured min/mean level-r size over DCC-free regular centers vs
// the two proven lower bounds. Reproduction claim: measured_min >= bound for
// every row.
#include "bench_common.h"

#include "dcc/dcc.h"
#include "graph/frontier_bfs.h"

namespace deltacol::bench {
namespace {

void E6_Expansion(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const int n = 16384;
  const Graph g = make_regular(n, d, 66);
  double min_level = -1, sum_level = 0;
  int centers = 0;
  for (auto _ : state) {
    for (int v = 0; v < g.num_vertices() && centers < 200; v += 7) {
      if (ball_contains_dcc(g, v, r)) continue;
      const auto layers = bfs_layers(g, v, r);
      const double sz =
          static_cast<double>(layers[static_cast<std::size_t>(r)].size());
      if (min_level < 0 || sz < min_level) min_level = sz;
      sum_level += sz;
      ++centers;
    }
  }
  state.counters["centers"] = centers;
  state.counters["min_level_r"] = min_level;
  state.counters["mean_level_r"] = centers ? sum_level / centers : 0;
  state.counters["lemma15_bound"] = std::pow(d - 1, r / 2.0);
  state.counters["lemma12_bound"] = std::pow(d - 2, r / 2.0);
}

}  // namespace
}  // namespace deltacol::bench

// (5, 4) is omitted: 5-regular radius-4 balls virtually always contain a
// short even cycle at this n, so there is no DCC-free population to measure.
BENCHMARK(deltacol::bench::E6_Expansion)
    ->Args({3, 2})->Args({4, 2})->Args({5, 2})
    ->Args({3, 4})->Args({4, 4})->Args({3, 6})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
