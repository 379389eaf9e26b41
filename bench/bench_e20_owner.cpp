// E20 — owner-compute distributed execution (DESIGN.md §6,
// "Owner-compute").
//
// The claim: a distributed round routes each envelope point-to-point to the
// rank that owns its destination, so the physical wire bytes are the
// cross-shard slot payload (SocketTransport::cross_payload_bytes, asserted
// equal per frame) plus fixed framing, while every observable stays
// bit-identical to the unsharded oracle.
//
// Workloads: the id-scrambled 2-D grid and triangle cactus from E18 (the
// scramble destroys construction-order locality, so the contiguous
// partition pays the pessimistic cut and the cluster partition shows the
// compounding win: locality cuts WHAT crosses, owner routing ships only
// that). Per (workload, S ∈ {2, 4, 8}, partition ∈ {contiguous, cluster})
// row, S real ranks run Luby's MIS concurrently over a full socketpair
// mesh:
//
//   - wire_owner: total physical bytes sent (frame payloads + prefixes)
//     across all ranks;
//   - payload_owner: cross_payload_bytes summed over ranks;
//   - wall_ms_owner: slowest rank's wall-clock for the whole Luby run
//     (rank-local merge/receive + wire);
//   - identical: 1 iff every rank's MIS equals the unsharded oracle's.
//
// The replicated all-gather these rows were first compared against is
// deleted; its measured numbers are kept in EXPERIMENTS.md (E20 notes).
//
// Emission: BENCH_e20.json when DELTACOL_BENCH_JSON is set under the
// minibench harness (schema in bench/README.md), CSV via DELTACOL_CSV_DIR.
#include <sys/socket.h>

#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "bench_common.h"
#include "graph/renumber.h"
#include "mis/luby_sync.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"

namespace deltacol::bench {
namespace {

constexpr const char* kWorkloadNames[] = {"grid-100x100", "cactus-6000"};
constexpr const char* kStrategyNames[] = {"contig", "cluster"};

// Same id-scrambling discipline as E18: a fixed Fisher-Yates permutation
// destroys the generators' construction-order locality.
const Graph& scrambled_workload(int which) {
  static std::map<int, Graph> cache;
  auto it = cache.find(which);
  if (it == cache.end()) {
    const Graph base =
        which == 0 ? grid_graph(100, 100, false) : triangle_cactus(6000);
    const int n = base.num_vertices();
    auto to_new = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
    std::iota(to_new->begin(), to_new->end(), 0);
    Rng rng(0xE20u + static_cast<std::uint64_t>(which));
    rng.shuffle(*to_new);
    auto to_old = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      (*to_old)[static_cast<std::size_t>((*to_new)[static_cast<std::size_t>(v)])] = v;
    }
    Renumbering scramble;
    scramble.to_new = to_new;
    scramble.to_old = to_old;
    it = cache.emplace(which, relabeled_graph(base, scramble)).first;
  }
  return it->second;
}

struct MeshRun {
  double wall_ms_max = 0.0;       // slowest rank's Luby wall-clock
  std::int64_t wire_sent = 0;     // physical bytes sent, all ranks
  std::int64_t cross_payload = 0; // cross_payload_bytes, all ranks
  bool identical = true;          // every rank's MIS == oracle
};

// S ranks on S threads over a full socketpair mesh, one Luby run.
MeshRun run_mesh(const Graph& g, const VertexPartition& part, int world,
                 const std::vector<bool>& oracle) {
  MeshRun out;
  std::vector<std::vector<int>> fds(
      static_cast<std::size_t>(world),
      std::vector<int>(static_cast<std::size_t>(world), -1));
  for (int a = 0; a < world; ++a) {
    for (int b = a + 1; b < world; ++b) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        out.identical = false;
        return out;
      }
      fds[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = sv[0];
      fds[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = sv[1];
    }
  }
  std::vector<std::unique_ptr<ShardRuntime>> rts(
      static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    rts[static_cast<std::size_t>(r)] = std::make_unique<ShardRuntime>(
        g, part, nullptr,
        std::make_unique<SocketTransport>(
            r, world, std::move(fds[static_cast<std::size_t>(r)])));
  }
  std::vector<std::thread> threads;
  std::vector<std::vector<bool>> mis(static_cast<std::size_t>(world));
  std::vector<double> wall_ms(static_cast<std::size_t>(world), 0.0);
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ShardRuntime& rt = *rts[static_cast<std::size_t>(r)];
      Rng rng(99);
      RoundLedger ledger;
      const auto t0 = std::chrono::steady_clock::now();
      mis[static_cast<std::size_t>(r)] =
          luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
      const auto t1 = std::chrono::steady_clock::now();
      wall_ms[static_cast<std::size_t>(r)] =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < world; ++r) {
    out.identical = out.identical && mis[static_cast<std::size_t>(r)] == oracle;
    out.wall_ms_max = std::max(out.wall_ms_max, wall_ms[static_cast<std::size_t>(r)]);
    const auto& st = static_cast<SocketTransport&>(
        rts[static_cast<std::size_t>(r)]->transport());
    out.wire_sent += st.wire_bytes_sent();
    out.cross_payload += st.cross_payload_bytes();
  }
  return out;
}

void E20_OwnerRouted(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int world = static_cast<int>(state.range(1));
  const int strategy = static_cast<int>(state.range(2));
  const Graph& g = scrambled_workload(which);
  const VertexPartition part =
      strategy == 0
          ? VertexPartition::contiguous(g.num_vertices(), world)
          : make_partition(g, world, PartitionStrategy::kCluster);

  std::vector<bool> oracle;
  {
    Rng rng(99);
    RoundLedger ledger;
    oracle = luby_mis_message_passing(g, rng, ledger, "mis");
  }

  MeshRun owner;
  for (auto _ : state) {
    owner = run_mesh(g, part, world, oracle);
  }

  state.counters["shards"] = world;
  state.counters["strategy"] = strategy;
  state.counters["wire_owner"] = static_cast<double>(owner.wire_sent);
  state.counters["payload_owner"] = static_cast<double>(owner.cross_payload);
  state.counters["wall_ms_owner"] = owner.wall_ms_max;
  state.counters["identical"] = owner.identical ? 1.0 : 0.0;

  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(which);
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(std::string("e20_owner_") + kWorkloadNames[which] + "_" +
                    kStrategyNames[strategy],
                row);
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E20_OwnerRouted)
    ->ArgsProduct({{0, 1}, {2, 4, 8}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
