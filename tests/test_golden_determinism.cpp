// Golden regression for the runtime: the fingerprints below are frozen
// historical results, so this suite pins every run not just as
// shape-invariant (which test_parallel_determinism already pins) but as
// identical to the recorded output. If a change legitimately alters the
// output (a new phase, a different charge), regenerate the table with the
// generator in tests/README.md and say so in the commit; an unexplained
// mismatch is a determinism regression.
//
// The fingerprint folds every observable of a DeltaColoringResult — the
// coloring bytes, Delta, the ledger total and per-phase breakdown, and all
// PhaseStats counters — through FNV-1a, and is checked at threads
// ∈ {1, 2, 8}: every thread count must land on the one frozen hash.
//
// The second table pins luby_mis_message_passing, the one pipeline that runs
// on ParallelSyncEngine's message rounds: the MIS, the ledger total and the
// ShardRuntime per-slot counters, over the serial, pooled, in-process
// sharded (contiguous and cluster partitions) and 3-rank socketpair
// owner-routed shapes. Its rows were captured
// from the tree before the engine's per-round inbox arena replaced the
// per-vertex inbox vectors, so they pin that rewrite to the historical
// output.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/renumber.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t result_fingerprint(const DeltaColoringResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Color c : r.coloring) h = fnv1a(h, static_cast<std::uint64_t>(c));
  h = fnv1a(h, static_cast<std::uint64_t>(r.delta));
  h = fnv1a(h, static_cast<std::uint64_t>(r.ledger.total()));
  for (const auto& e : r.ledger.breakdown()) {
    for (char ch : e.phase) h = fnv1a(h, static_cast<std::uint64_t>(ch));
    h = fnv1a(h, static_cast<std::uint64_t>(e.rounds));
  }
  const PhaseStats& s = r.stats;
  for (int x : {s.num_dccs_selected, s.base_layer_size, s.num_b_layers,
                s.num_selected, s.num_tnodes, s.num_marked, s.num_c_layers,
                s.h_vertices, s.happy_vertices, s.leftover_vertices,
                s.leftover_components, s.max_leftover_component,
                s.anchors_empty_fallbacks, s.brooks_fixes, s.repairs,
                s.retries_used}) {
    h = fnv1a(h, static_cast<std::uint64_t>(x));
  }
  return h;
}

struct Golden {
  const char* graph;
  const char* alg;
  std::uint64_t hash;
  ListEngine engine = ListEngine::kDeterministic;
};

// Captured pre-fast-mode, seed 2024, serial run (threads = 1, shards = 1).
constexpr Golden kGoldens[] = {
    {"regular-500-6", "det", 0x9dc681a19a5fb1d4ULL},
    {"regular-500-6", "small", 0x4ae385a1b0f38fb2ULL},
    {"regular-500-6", "naive", 0x6f55bab76486c993ULL},
    {"gallai-400-4", "det", 0x86012e5a3757d392ULL},
    {"gallai-400-4", "small", 0x0767e5054e9cd0fcULL},
    {"gallai-400-4", "naive", 0x1ff9825bc0e4a23cULL},
    {"sparse-400-6", "det", 0x6eda4901743b8e72ULL},
    {"sparse-400-6", "small", 0xebd47ab2aa0c5aa5ULL},
    {"sparse-400-6", "naive", 0x89f3445d9c3a8241ULL},
    {"3-components", "det", 0xc2048990d5fb952eULL},
    {"3-components", "small", 0x5981a6bb976bfd8fULL},
    {"3-components", "naive", 0x2c3d2e81a25cf2f0ULL},
    {"triangle-cactus", "det", 0xbcf2c1db7d613405ULL},
    {"triangle-cactus", "small", 0x3aedd525c48be4d6ULL},
    {"triangle-cactus", "naive", 0xc4e498016540fa74ULL},
    // kRandomizedLarge rows, captured later (same seed, serial run) from the
    // tree before the r-ball DCC analysis was rewritten allocation-free, so
    // they pin that rewrite to the historical output.
    {"regular-500-6", "large", 0x5a939e36c0fa9290ULL},
    {"gallai-400-4", "large", 0xaf66ac8718b9c794ULL},
    {"sparse-400-6", "large", 0x03ffe0f54802b502ULL},
    {"3-components", "large", 0xb64d8f71d8ae215aULL},
    {"triangle-cactus", "large", 0x92dc5e087f2c9a63ULL},
    // kBaselineND rows, captured later (same seed, serial run) from the tree
    // before the batch-parallel packing engine was deleted, so they pin the
    // pipeline's deterministic ruling set to the historical output.
    {"regular-500-6", "ps", 0x1d1777903b0716ddULL},
    {"gallai-400-4", "ps", 0x6b55bef053173e69ULL},
    {"sparse-400-6", "ps", 0x82086afb7503dd9fULL},
    {"3-components", "ps", 0x7b71104044c77869ULL},
    {"triangle-cactus", "ps", 0xaa13247b7810a6c0ULL},
    // Rows captured later (same seed, serial run) from the tree before the
    // layer instances were colored in place on the parent graph: the zoo
    // under the randomized list engine, which no earlier row exercised, and
    // a connected torus large enough that the list instances' class sweeps
    // and the layering BFS frontiers take their pooled paths at T = 8.
    {"regular-500-6", "det", 0x20dbf5da205a704eULL, ListEngine::kRandomized},
    {"gallai-400-4", "det", 0xb8e3a78f2e31f1efULL, ListEngine::kRandomized},
    {"sparse-400-6", "det", 0xf648823e39c01a37ULL, ListEngine::kRandomized},
    {"3-components", "det", 0xd9587578ed3ca6c2ULL, ListEngine::kRandomized},
    {"triangle-cactus", "det", 0x27aaa15fc5aa01d4ULL, ListEngine::kRandomized},
    {"regular-500-6", "large", 0x89e80d57d258c6edULL, ListEngine::kRandomized},
    {"gallai-400-4", "large", 0x5cb2e32c83dd0dbfULL, ListEngine::kRandomized},
    {"sparse-400-6", "large", 0x1ce752ae6aa4b1ddULL, ListEngine::kRandomized},
    {"3-components", "large", 0x982f20236b31d095ULL, ListEngine::kRandomized},
    {"triangle-cactus", "large", 0x22e1cd570376f6deULL, ListEngine::kRandomized},
    {"torus-200x200", "det", 0x8bdf236914f48908ULL},
};

Algorithm alg_from_tag(const std::string& tag) {
  if (tag == "det") return Algorithm::kDeterministic;
  if (tag == "small") return Algorithm::kRandomizedSmall;
  if (tag == "large") return Algorithm::kRandomizedLarge;
  if (tag == "ps") return Algorithm::kBaselineND;
  return Algorithm::kBaselineGreedyBrooks;
}

struct Workload {
  const char* name;
  Graph g;
};

// The zoo of tests/test_parallel_determinism.cpp, reproduced exactly (same
// seed, same construction order — the generators consume one shared
// stream).
std::vector<Workload> make_zoo() {
  Rng rng(71);
  std::vector<Workload> zoo;
  zoo.push_back({"regular-500-6", random_regular(500, 6, rng)});
  zoo.push_back({"gallai-400-4", random_gallai_tree(400, 4, rng)});
  zoo.push_back({"sparse-400-6", random_graph_max_degree(400, 6, 1.8, rng)});
  zoo.push_back({"3-components",
                 disjoint_union(disjoint_union(random_regular(200, 5, rng),
                                               random_regular(90, 4, rng)),
                                random_graph_max_degree(150, 6, 1.8, rng))});
  zoo.push_back({"triangle-cactus", triangle_cactus(1500)});
  return zoo;
}

TEST(GoldenDeterminism, EveryShapeLandsOnThePrePrFingerprint) {
  std::vector<Workload> zoo = make_zoo();
  zoo.push_back({"torus-200x200", grid_graph(200, 200, /*wrap=*/true)});
  for (const Golden& golden : kGoldens) {
    const Graph* g = nullptr;
    for (const auto& w : zoo) {
      if (std::string(w.name) == golden.graph) g = &w.g;
    }
    ASSERT_NE(g, nullptr) << golden.graph;
    const Algorithm alg = alg_from_tag(golden.alg);
    for (int threads : {1, 2, 8}) {
      DeltaColoringOptions opt;
      opt.seed = 2024;
      opt.num_threads = threads;
      opt.list_engine = golden.engine;
      const DeltaColoringResult res = delta_color(*g, alg, opt);
      EXPECT_EQ(result_fingerprint(res), golden.hash)
          << std::hex << golden.graph << " / " << golden.alg << " / "
          << (golden.engine == ListEngine::kRandomized ? "rand-lists"
                                                       : "det-lists")
          << " / T=" << threads;
    }
  }
}

// --- message-passing Luby ---------------------------------------------------

struct LubyGolden {
  const char* graph;
  // "unsharded" (no ShardRuntime: serial and pooled runs), or
  // "S<k>-contiguous" / "S<k>-cluster" (a runtime over that partition).
  const char* shape;
  std::uint64_t hash;
};

// Captured from the tree before the inbox arena landed, seed 2025.
constexpr LubyGolden kLubyGoldens[] = {
    {"regular-500-6", "unsharded", 0x743dd13390917763ULL},
    {"regular-500-6", "S2-contiguous", 0x1ab4e491b223928dULL},
    {"regular-500-6", "S2-cluster", 0x6565167ec4698d6fULL},
    {"regular-500-6", "S8-contiguous", 0x5ec65639a9465e6dULL},
    {"regular-500-6", "S8-cluster", 0xebcb675660c5e080ULL},
    {"regular-500-6", "S3-contiguous", 0xe11f6aa24a2cd8a4ULL},
    {"gallai-400-4", "unsharded", 0x8ae12c949209d2e0ULL},
    {"gallai-400-4", "S2-contiguous", 0x804dc2e5f06ced43ULL},
    {"gallai-400-4", "S2-cluster", 0xc145499057a6f096ULL},
    {"gallai-400-4", "S8-contiguous", 0x46bfee01722cd2e9ULL},
    {"gallai-400-4", "S8-cluster", 0xf39e5e9930d1cd86ULL},
    {"gallai-400-4", "S3-contiguous", 0xd7c35b6e78f54aa5ULL},
    {"sparse-400-6", "unsharded", 0xa86b160fa78e2da2ULL},
    {"sparse-400-6", "S2-contiguous", 0x544d4ff248e33346ULL},
    {"sparse-400-6", "S2-cluster", 0xe36375e300a949f4ULL},
    {"sparse-400-6", "S8-contiguous", 0x8bfbe8c8102d0307ULL},
    {"sparse-400-6", "S8-cluster", 0x9df3ca7d2e768bc9ULL},
    {"sparse-400-6", "S3-contiguous", 0xf2f560cc6ecc7705ULL},
    {"3-components", "unsharded", 0x918584e26fe33283ULL},
    {"3-components", "S2-contiguous", 0x90d575ba781ab7efULL},
    {"3-components", "S2-cluster", 0x915c7ce762c832c2ULL},
    {"3-components", "S8-contiguous", 0x78f0ec0d9851ab2fULL},
    {"3-components", "S8-cluster", 0xcdf4fba1b07dbd02ULL},
    {"3-components", "S3-contiguous", 0xc35dd9e2f64f7bbfULL},
    {"triangle-cactus", "unsharded", 0x668dd5e18ca558e2ULL},
    {"triangle-cactus", "S2-contiguous", 0x3f6aaa3d5d2d4407ULL},
    {"triangle-cactus", "S2-cluster", 0xc74c1244bc4774c5ULL},
    {"triangle-cactus", "S8-contiguous", 0x85465a0d66175746ULL},
    {"triangle-cactus", "S8-cluster", 0x5e8524ee1fabfffcULL},
    {"triangle-cactus", "S3-contiguous", 0x6f599dcf62aa898eULL},
};

std::uint64_t luby_fingerprint(const std::vector<bool>& mis,
                               const RoundLedger& ledger,
                               const ShardRuntime* runtime) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (bool b : mis) h = fnv1a(h, b ? 1u : 0u);
  h = fnv1a(h, static_cast<std::uint64_t>(ledger.total()));
  if (runtime == nullptr) return h;
  h = fnv1a(h, static_cast<std::uint64_t>(runtime->rounds_recorded()));
  for (int s = 0; s < runtime->num_shards(); ++s) {
    for (int d = 0; d < runtime->num_shards(); ++d) {
      h = fnv1a(h, static_cast<std::uint64_t>(runtime->slot_messages(s, d)));
      h = fnv1a(h, static_cast<std::uint64_t>(runtime->slot_bits(s, d)));
    }
  }
  return h;
}

std::uint64_t luby_run(const Graph& g, ThreadPool* pool,
                       ShardRuntime* runtime) {
  Rng rng(2025);
  RoundLedger ledger;
  const std::vector<bool> mis =
      luby_mis_message_passing(g, rng, ledger, "mis", pool, runtime);
  return luby_fingerprint(mis, ledger, runtime);
}

// `world` SocketTransport ranks over a full socketpair mesh, each with its
// own ShardRuntime over the contiguous partition, run concurrently; returns
// every rank's fingerprint.
std::vector<std::uint64_t> luby_socket_ranks(const Graph& g, int world) {
  std::vector<std::vector<int>> fds(static_cast<std::size_t>(world),
                                    std::vector<int>(world, -1));
  for (int a = 0; a < world; ++a) {
    for (int b = a + 1; b < world; ++b) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        ADD_FAILURE() << "socketpair failed";
        return {};
      }
      fds[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = sv[0];
      fds[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = sv[1];
    }
  }
  std::vector<std::unique_ptr<ShardRuntime>> runtimes;
  for (int r = 0; r < world; ++r) {
    runtimes.push_back(std::make_unique<ShardRuntime>(
        g, VertexPartition::contiguous(g.num_vertices(), world), nullptr,
        std::make_unique<SocketTransport>(
            r, world, std::move(fds[static_cast<std::size_t>(r)]))));
  }
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(world), 0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        hashes[static_cast<std::size_t>(r)] =
            luby_run(g, nullptr, runtimes[static_cast<std::size_t>(r)].get());
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return hashes;
}

std::uint64_t luby_golden(const char* graph, const std::string& shape) {
  for (const LubyGolden& golden : kLubyGoldens) {
    if (std::string(golden.graph) == graph && golden.shape == shape) {
      return golden.hash;
    }
  }
  ADD_FAILURE() << "no Luby golden row for " << graph << " / " << shape;
  return 0;
}

TEST(GoldenDeterminism, MessagePassingLubyLandsOnThePrePrFingerprint) {
  const std::vector<Workload> zoo = make_zoo();
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (const Workload& w : zoo) {
    const std::uint64_t unsharded = luby_golden(w.name, "unsharded");
    EXPECT_EQ(luby_run(w.g, nullptr, nullptr), unsharded)
        << std::hex << w.name << " serial";
    EXPECT_EQ(luby_run(w.g, &pool2, nullptr), unsharded)
        << std::hex << w.name << " T=2";
    EXPECT_EQ(luby_run(w.g, &pool8, nullptr), unsharded)
        << std::hex << w.name << " T=8";

    for (int num_shards : {2, 8}) {
      for (PartitionStrategy strategy :
           {PartitionStrategy::kContiguous, PartitionStrategy::kCluster}) {
        std::string shape = "S";
        shape += std::to_string(num_shards);
        shape += '-';
        shape += partition_strategy_name(strategy);
        const std::uint64_t golden = luby_golden(w.name, shape);
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool8}) {
          ShardRuntime runtime(w.g, make_partition(w.g, num_shards, strategy),
                               pool);
          EXPECT_EQ(luby_run(w.g, pool, &runtime), golden)
              << std::hex << w.name << " " << shape << " T="
              << (pool == nullptr ? 1 : 8);
        }
      }
    }

    // Three ranks: the owner-routed distributed round, where every rank's
    // column merges two remote slots. The in-process run over the same
    // partition lands on the same row.
    const std::uint64_t golden = luby_golden(w.name, "S3-contiguous");
    ShardRuntime in_process(w.g, 3, nullptr);
    EXPECT_EQ(luby_run(w.g, nullptr, &in_process), golden)
        << std::hex << w.name << " S3 in-process";
    const std::vector<std::uint64_t> ranks = luby_socket_ranks(w.g, 3);
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      EXPECT_EQ(ranks[r], golden) << std::hex << w.name << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace deltacol
