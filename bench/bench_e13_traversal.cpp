// E13 — traversal engine throughput (graph/frontier_bfs.h; DESIGN.md §6).
//
// The one experiment that measures the simulator's BFS substrate itself,
// introduced with the epoch-stamped scratch:
//
//  * repeated r-ball queries — the DCC-detection access pattern — through
//    the seed-style implementation (a fresh O(n) distance vector + O(n)
//    result scan per query) vs the epoch-stamped scratch (O(ball) per
//    query). `speedup_vs_seed` is the acceptance counter: >= 5x at n = 1M.
//  * full-graph layered BFS and labeled multi-source BFS — the build_layers
//    / ruling-set coverage pattern, as serial `mverts_per_s` rows; rounds
//    play no role here, the engine is below the cost model. (A pooled
//    frontier expansion used to be measured here too; it ran layered BFS at
//    0.49–0.66x of serial and was retired, see EXPERIMENTS.md E13.)
//
// Emission: wall-clock per row (both harnesses), plus BENCH_*.json when
// DELTACOL_BENCH_JSON is set under the minibench harness (see
// bench/README.md for the schema) and CSV via DELTACOL_CSV_DIR.
#include <chrono>
#include <map>
#include <queue>
#include <utility>

#include "bench_common.h"
#include "graph/frontier_bfs.h"

namespace deltacol::bench {
namespace {

constexpr int kDegree = 8;
constexpr int kBallQueries = 512;

// Graphs are expensive at n = 1M; build each (n, d) once per process.
const Graph& cached_regular(int n) {
  static std::map<int, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_regular(n, kDegree, 77)).first;
  }
  return it->second;
}

// Deterministic query centers spread over the vertex range.
inline int center(int i, int n) {
  return static_cast<int>((static_cast<std::int64_t>(i) * 99991) % n);
}

// The seed's ball(): queue BFS into a fresh n-sized distance vector, then
// an O(n) scan for reached vertices — kept verbatim as the baseline.
std::size_t seed_style_ball_size(const Graph& g, int v, int r) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<int> q;
  dist[static_cast<std::size_t>(v)] = 0;
  q.push(v);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    if (dist[static_cast<std::size_t>(u)] >= r) continue;
    for (int w : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] == -1) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(w);
      }
    }
  }
  std::size_t count = 0;
  for (int u = 0; u < g.num_vertices(); ++u) {
    if (dist[static_cast<std::size_t>(u)] != -1) ++count;
  }
  return count;
}

// 1-run wall-clock baselines of the seed-style ball queries, keyed by
// (n, r), for speedup_vs_seed (rows run in registration order).
std::map<std::pair<int, int>, double>& baselines() {
  static std::map<std::pair<int, int>, double> b;
  return b;
}

void e13_csv(benchmark::State& state, const std::string& family) {
  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(family, row);
}

// ---- repeated r-ball queries ----------------------------------------------

void E13_BallSeedStyle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);
  std::size_t checksum = 0;
  std::int64_t queries = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBallQueries; ++i) {
      checksum += seed_style_ball_size(g, center(i, n), r);
      ++queries;
    }
  }
  benchmark::DoNotOptimize(checksum);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBallQueries; ++i) {
    checksum += seed_style_ball_size(g, center(i, n), r);
    ++queries;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  baselines()[std::make_pair(n, r)] = secs;
  state.counters["queries_per_s"] = secs > 0.0 ? kBallQueries / secs : 0.0;
  state.counters["mean_ball"] =
      queries > 0 ? static_cast<double>(checksum) / static_cast<double>(queries)
                  : 0.0;
  e13_csv(state, "e13_ball_seed");
}

void E13_BallScratch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);
  BfsScratch scratch;
  std::size_t checksum = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBallQueries; ++i) {
      scratch.run(g, center(i, n), r);
      checksum += scratch.order().size();
    }
  }
  benchmark::DoNotOptimize(checksum);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBallQueries; ++i) {
    scratch.run(g, center(i, n), r);
    checksum += scratch.order().size();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  state.counters["queries_per_s"] = secs > 0.0 ? kBallQueries / secs : 0.0;
  const auto it = baselines().find(std::make_pair(n, r));
  state.counters["speedup_vs_seed"] =
      (it != baselines().end() && secs > 0.0) ? it->second / secs : 0.0;
  e13_csv(state, "e13_ball_scratch");
}

// ---- full-graph layered / multi-source BFS --------------------------------

void run_full_graph(benchmark::State& state, bool multi_source) {
  const int n = static_cast<int>(state.range(0));
  const Graph& g = cached_regular(n);
  BfsScratch scratch;
  std::vector<int> seeds;
  if (multi_source) {
    for (int i = 0; i < n / 64; ++i) seeds.push_back(center(i, n));
  }
  auto sweep = [&] {
    if (multi_source) {
      scratch.run_multi_labeled(g, seeds);
    } else {
      scratch.run(g, 0);
    }
    return scratch.order().size() + static_cast<std::size_t>(scratch.num_levels());
  };
  std::size_t checksum = 0;
  for (auto _ : state) checksum += sweep();
  benchmark::DoNotOptimize(checksum);

  const auto t0 = std::chrono::steady_clock::now();
  checksum += sweep();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  state.counters["levels"] = scratch.num_levels();
  state.counters["mverts_per_s"] =
      secs > 0.0 ? static_cast<double>(scratch.order().size()) / secs / 1e6
                 : 0.0;
  e13_csv(state, multi_source ? "e13_multi_source" : "e13_layers");
}

void E13_Layers(benchmark::State& state) { run_full_graph(state, false); }
void E13_MultiSource(benchmark::State& state) { run_full_graph(state, true); }

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E13_BallSeedStyle)
    ->ArgsProduct({{100000, 1000000}, {2}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E13_BallScratch)
    ->ArgsProduct({{100000, 1000000}, {2}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E13_Layers)
    ->Arg(100000)->Arg(1000000)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E13_MultiSource)
    ->Arg(100000)->Arg(1000000)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);
