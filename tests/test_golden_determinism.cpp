// Golden regression for the deterministic mode: the fingerprints below were
// captured from the tree BEFORE ExecutionMode::kFast landed, so this suite
// is the proof that adding the relaxed-order engines left kDeterministic
// byte-for-byte untouched — not just shape-invariant (which
// test_parallel_determinism already pins) but identical to the historical
// results. If a change legitimately alters deterministic output (a new
// phase, a different charge), regenerate the table with the generator in
// tests/README.md and say so in the commit; an unexplained mismatch is a
// determinism regression.
//
// The fingerprint folds every observable of a DeltaColoringResult — the
// coloring bytes, Delta, the ledger total and per-phase breakdown, and all
// PhaseStats counters — through FNV-1a, and is checked over the full
// (shards, threads) ∈ {1, 2, 8}² grid: every shape must land on the one
// frozen hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
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
};

Algorithm alg_from_tag(const std::string& tag) {
  if (tag == "det") return Algorithm::kDeterministic;
  if (tag == "small") return Algorithm::kRandomizedSmall;
  if (tag == "large") return Algorithm::kRandomizedLarge;
  if (tag == "ps") return Algorithm::kBaselineND;
  return Algorithm::kBaselineGreedyBrooks;
}

TEST(GoldenDeterminism, EveryShapeLandsOnThePrePrFingerprint) {
  // The zoo of tests/test_parallel_determinism.cpp, reproduced exactly
  // (same seed, same construction order — the generators consume one
  // shared stream).
  Rng rng(71);
  struct Workload {
    const char* name;
    Graph g;
  };
  const Workload zoo[] = {
      {"regular-500-6", random_regular(500, 6, rng)},
      {"gallai-400-4", random_gallai_tree(400, 4, rng)},
      {"sparse-400-6", random_graph_max_degree(400, 6, 1.8, rng)},
      {"3-components",
       disjoint_union(disjoint_union(random_regular(200, 5, rng),
                                     random_regular(90, 4, rng)),
                      random_graph_max_degree(150, 6, 1.8, rng))},
      {"triangle-cactus", triangle_cactus(1500)},
  };
  for (const Golden& golden : kGoldens) {
    const Graph* g = nullptr;
    for (const auto& w : zoo) {
      if (std::string(w.name) == golden.graph) g = &w.g;
    }
    ASSERT_NE(g, nullptr) << golden.graph;
    const Algorithm alg = alg_from_tag(golden.alg);
    for (int num_shards : {1, 2, 8}) {
      for (int threads : {1, 2, 8}) {
        DeltaColoringOptions opt;
        opt.seed = 2024;
        opt.num_threads = threads;
        opt.num_shards = num_shards;
        const DeltaColoringResult res = delta_color(*g, alg, opt);
        EXPECT_EQ(result_fingerprint(res), golden.hash)
            << golden.graph << " / " << golden.alg << " / S="
            << num_shards << " T=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace deltacol
