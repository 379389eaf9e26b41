// E15 — the shard layer (graph/partition.h + runtime/mailbox.h).
//
// Two claims, two series:
//
//  * E15_ShardInvariance — delta_color at shards ∈ {1, 2, 4, 8}: the round
//    total and the coloring are INVARIANT in the shard count (`identical`
//    must be 1 and `rounds` constant on every row — the golden contract the
//    determinism suite enforces per commit, re-asserted here on the bench
//    workload). Wall-clock differences between rows are placement effects
//    only; like E12/E13, speedups need multi-core hardware.
//
//  * E15_MessageVolume — the CONGEST-style metric a distributed transport
//    would pay: Luby's MIS on the message-passing engine over a
//    ShardRuntime, reporting per-round per-shard message volume and the
//    cross-shard fraction. `msgs_total` is shard-invariant (the same
//    envelopes flow, only their slot routing changes); `cross_fraction`
//    grows with the shard count — the quantity to watch when sizing a real
//    transport. `mis_identical` re-asserts bit-identity to the unsharded
//    engine on every row.
//
// Emission: wall-clock per row (both harnesses), BENCH_e15.json when
// DELTACOL_BENCH_JSON is set under the minibench harness (schema in
// bench/README.md), CSV via DELTACOL_CSV_DIR.
#include <map>

#include "bench_common.h"
#include "graph/metrics.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/mailbox.h"
#include "runtime/thread_pool.h"

namespace deltacol::bench {
namespace {

constexpr int kDegree = 8;

const Graph& cached_regular(int n) {
  static std::map<int, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_regular(n, kDegree, 2025)).first;
  }
  return it->second;
}

void e15_csv(benchmark::State& state, const std::string& family) {
  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(family, row);
}

void E15_ShardInvariance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int num_shards = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);

  DeltaColoringOptions base;
  base.seed = 7;
  base.num_threads = 1;
  base.num_shards = 1;
  const DeltaColoringResult oracle =
      delta_color(g, Algorithm::kRandomizedSmall, base);

  DeltaColoringOptions opt = base;
  opt.num_shards = num_shards;
  DeltaColoringResult res;
  for (auto _ : state) {
    res = delta_color(g, Algorithm::kRandomizedSmall, opt);
  }
  state.counters["shards"] = num_shards;
  state.counters["rounds"] = static_cast<double>(res.ledger.total());
  // The golden contract, re-asserted on every row.
  state.counters["identical"] =
      (res.coloring == oracle.coloring &&
       res.ledger.total() == oracle.ledger.total())
          ? 1.0
          : 0.0;
  e15_csv(state, "e15_shard_invariance");
}

void E15_MessageVolume(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int num_shards = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);

  // Unsharded oracle for the bit-identity counter.
  std::vector<bool> oracle_mis;
  {
    Rng rng(99);
    RoundLedger ledger;
    oracle_mis = luby_mis_message_passing(g, rng, ledger, "mis");
  }

  std::int64_t rounds = 0;
  std::int64_t msgs = 0;
  std::int64_t cross = 0;
  bool identical = true;
  for (auto _ : state) {
    ShardRuntime shards(g, num_shards, nullptr);
    Rng rng(99);
    RoundLedger ledger;
    const auto mis =
        luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &shards);
    identical = identical && mis == oracle_mis;
    rounds = shards.rounds_recorded();
    msgs = shards.total_messages();
    cross = shards.cross_shard_messages();
  }
  state.counters["shards"] = num_shards;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["msgs_total"] = static_cast<double>(msgs);
  state.counters["msgs_per_round"] =
      rounds > 0 ? static_cast<double>(msgs) / static_cast<double>(rounds)
                 : 0.0;
  state.counters["msgs_per_round_per_shard"] =
      rounds > 0 ? static_cast<double>(msgs) /
                       (static_cast<double>(rounds) * num_shards)
                 : 0.0;
  state.counters["cross_fraction"] =
      msgs > 0 ? static_cast<double>(cross) / static_cast<double>(msgs) : 0.0;
  // The static analogue of cross_fraction: the fraction of graph edges the
  // contiguous partition cuts (graph/metrics.h — E18 reports the same metric
  // for the locality partition).
  state.counters["cross_edge_fraction"] = cross_edge_fraction(
      g, VertexPartition::contiguous(g.num_vertices(), num_shards));
  state.counters["mis_identical"] = identical ? 1.0 : 0.0;
  e15_csv(state, "e15_message_volume");
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E15_ShardInvariance)
    ->ArgsProduct({{20000, 50000}, {1, 2, 4, 8}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E15_MessageVolume)
    ->ArgsProduct({{20000, 50000}, {1, 2, 4, 8}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);
