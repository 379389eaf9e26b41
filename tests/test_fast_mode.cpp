// ExecutionMode::kFast cross-validation harness (runtime/execution_mode.h).
//
// Fast mode drops the replay/merge ordering the deterministic runtime pays
// for — atomic frontier claiming, inboxes in merge order, first-come work
// claiming, plain range-chunked sweeps — so its contract shrinks from
// "bit-identical for every shape" to "a valid Delta-coloring". This suite is
// that contract: every algorithm over the generator zoo, across thread
// counts and both charging models, validated against the
// serial deterministic oracle on the properties fast mode still promises:
//
//   * the coloring is a proper, complete Delta-coloring (validate throws),
//   * it uses at most Delta colors (same palette bound as deterministic),
//   * the round ledger stays within the deterministic reference total,
//   * CONGEST(B) charging only inflates rounds relative to LOCAL.
//
// The perturbation layer then makes the relaxed orderings actually vary:
// perturb_salt (api.h) randomizes chunk counts and injects thread stalls,
// and a PerturbingTransport runs shards in reverse order with staggered
// delays — hostile interleavings under which validity (and, for the
// deterministic mode, bit-identity) must survive.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/execution_mode.h"
#include "runtime/mailbox.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

const Algorithm kAllAlgorithms[] = {
    Algorithm::kDeterministic,       Algorithm::kRandomizedLarge,
    Algorithm::kRandomizedSmall,     Algorithm::kBaselineND,
    Algorithm::kBaselineGreedyBrooks,
};

struct Workload {
  const char* name;
  Graph g;
};

std::vector<Workload> generator_zoo() {
  Rng rng(71);
  std::vector<Workload> zoo;
  zoo.push_back({"regular-500-6", random_regular(500, 6, rng)});
  zoo.push_back({"gallai-400-4", random_gallai_tree(400, 4, rng)});
  zoo.push_back({"sparse-400-6", random_graph_max_degree(400, 6, 1.8, rng)});
  zoo.push_back(
      {"3-components",
       disjoint_union(disjoint_union(random_regular(200, 5, rng),
                                     random_regular(90, 4, rng)),
                      random_graph_max_degree(150, 6, 1.8, rng))});
  zoo.push_back({"triangle-cactus", triangle_cactus(1500)});
  return zoo;
}

// The validity contract: proper + complete (validate throws otherwise), at
// most Delta colors, and a ledger no worse than the deterministic reference.
void expect_valid_fast_result(const Graph& g, const DeltaColoringResult& fast,
                              const DeltaColoringResult& det,
                              const std::string& label) {
  ASSERT_NO_THROW(validate_delta_coloring(g, fast.coloring, fast.delta))
      << label;
  EXPECT_EQ(fast.delta, det.delta) << label;
  EXPECT_LE(num_colors_used(fast.coloring), fast.delta) << label;
  EXPECT_GT(fast.ledger.total(), 0) << label;
  EXPECT_LE(fast.ledger.total(), det.ledger.total()) << label;
}

TEST(ExecutionModeApi, ParseAndName) {
  ExecutionMode m = ExecutionMode::kFast;
  EXPECT_TRUE(parse_execution_mode("deterministic", &m));
  EXPECT_EQ(m, ExecutionMode::kDeterministic);
  EXPECT_TRUE(parse_execution_mode("det", &m));
  EXPECT_EQ(m, ExecutionMode::kDeterministic);
  EXPECT_TRUE(parse_execution_mode("fast", &m));
  EXPECT_EQ(m, ExecutionMode::kFast);
  EXPECT_FALSE(parse_execution_mode("chaotic", &m));
  EXPECT_EQ(m, ExecutionMode::kFast);  // unchanged on failure
  EXPECT_STREQ(execution_mode_name(ExecutionMode::kDeterministic),
               "deterministic");
  EXPECT_STREQ(execution_mode_name(ExecutionMode::kFast), "fast");
}

// The headline harness: every algorithm × the zoo × threads ∈ {1, 2, 8},
// each under LOCAL charging and under CONGEST(64). The serial deterministic
// run is the oracle for the palette and round bounds.
TEST(FastMode, ZooCrossValidationGrid) {
  const auto zoo = generator_zoo();
  for (const auto& w : zoo) {
    for (Algorithm alg : kAllAlgorithms) {
      if (alg == Algorithm::kRandomizedLarge && w.g.max_degree() < 4) {
        continue;  // Theorem 3 requires Delta >= 4
      }
      DeltaColoringOptions det_opt;
      det_opt.seed = 2024;
      det_opt.num_threads = 1;
      const DeltaColoringResult det_local = delta_color(w.g, alg, det_opt);

      DeltaColoringOptions det64_opt = det_opt;
      det64_opt.congest_bits = 64;
      const DeltaColoringResult det_congest = delta_color(w.g, alg, det64_opt);

      for (int threads : {1, 2, 8}) {
        DeltaColoringOptions opt = det_opt;
        opt.mode = ExecutionMode::kFast;
        opt.num_threads = threads;
        const std::string label = std::string(w.name) + " / " +
                                  algorithm_name(alg) + " / T=" +
                                  std::to_string(threads);
        const DeltaColoringResult fast = delta_color(w.g, alg, opt);
        expect_valid_fast_result(w.g, fast, det_local, label);

        // CONGEST consistency: charging under a bandwidth cap is
        // accounting-only (still valid) and can only inflate the round
        // total relative to LOCAL.
        DeltaColoringOptions copt = opt;
        copt.congest_bits = 64;
        const DeltaColoringResult fast64 = delta_color(w.g, alg, copt);
        expect_valid_fast_result(w.g, fast64, det_congest, label + " B=64");
        EXPECT_GE(fast64.ledger.total(), fast.ledger.total())
            << label << " B=64 vs LOCAL";
      }
    }
  }
}

// --- perturbation layer ----------------------------------------------------

// perturb_salt randomizes chunk counts and injects stalls (thread_pool.cpp).
// Fast mode must stay valid under every salt; deterministic mode must stay
// BIT-IDENTICAL — the perturbation hooks are pure functions of (salt, shape)
// that move wall-clock only, never observables.
TEST(FastMode, PerturbationSaltSweep) {
  Rng grng(83);
  const Graph g = random_regular(600, 5, grng);
  for (Algorithm alg :
       {Algorithm::kDeterministic, Algorithm::kRandomizedSmall}) {
    DeltaColoringOptions base;
    base.seed = 7;
    base.num_threads = 8;
    const DeltaColoringResult det_ref = delta_color(g, alg, base);
    validate_delta_coloring(g, det_ref.coloring, det_ref.delta);

    for (std::uint64_t salt : {1ull, 2ull, 0x9e3779b97f4a7c15ull}) {
      DeltaColoringOptions det_opt = base;
      det_opt.perturb_salt = salt;
      const DeltaColoringResult det = delta_color(g, alg, det_opt);
      EXPECT_EQ(det.coloring, det_ref.coloring)
          << algorithm_name(alg) << " det salt=" << salt;
      EXPECT_EQ(det.ledger.total(), det_ref.ledger.total())
          << algorithm_name(alg) << " det salt=" << salt;

      DeltaColoringOptions fast_opt = det_opt;
      fast_opt.mode = ExecutionMode::kFast;
      const DeltaColoringResult fast = delta_color(g, alg, fast_opt);
      expect_valid_fast_result(
          g, fast, det_ref,
          std::string(algorithm_name(alg)) + " fast salt=" +
              std::to_string(salt));
    }
  }
}

// A scheduling-hostile Transport: shards run serially in REVERSE order, each
// behind a staggered stall, so envelopes always arrive in the order the
// deterministic merge exists to correct. Fast mode consumes them unsorted —
// the receive callbacks must genuinely be order-free folds.
class PerturbingTransport final : public Transport {
 public:
  explicit PerturbingTransport(int num_shards) : num_shards_(num_shards) {}
  int num_shards() const override { return num_shards_; }
  void run_shards(const std::function<void(int)>& body) override {
    for (int s = num_shards_ - 1; s >= 0; --s) {
      std::this_thread::sleep_for(std::chrono::microseconds(20 * (s + 1)));
      body(s);
    }
  }
  void exchange() override { ++exchanges_; }
  int exchanges() const { return exchanges_; }

 private:
  int num_shards_;
  int exchanges_ = 0;
};

TEST(FastMode, PerturbingTransportLubyIsStillAnMis) {
  Rng grng(31);
  const Graph g = random_regular(400, 4, grng);

  // Serial deterministic oracle (no pool, no shards).
  Rng ref_rng(99);
  RoundLedger ref_ledger;
  const auto ref_mis =
      luby_mis_message_passing(g, ref_rng, ref_ledger, "mis");
  ASSERT_TRUE(is_mis(g, ref_mis));

  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    auto transport = std::make_unique<PerturbingTransport>(5);
    PerturbingTransport* raw = transport.get();
    ShardRuntime shards(g, 5, pool_ptr, std::move(transport));
    Rng rng(99);
    RoundLedger ledger;
    const auto mis =
        luby_mis_message_passing(g, rng, ledger, "mis", pool_ptr, &shards,
                                 ExecutionMode::kFast);
    EXPECT_TRUE(is_mis(g, mis)) << threads << " threads";
    // Priorities come from a serial shared stream and both receive folds are
    // order-free, so even fast mode keeps the iteration structure — and with
    // it the round charges — of the serial reference.
    EXPECT_EQ(ledger.total(), ref_ledger.total()) << threads << " threads";
    EXPECT_EQ(raw->exchanges(), static_cast<int>(shards.rounds_recorded()))
        << threads << " threads";
    EXPECT_GT(shards.total_messages(), 0) << threads << " threads";
  }
}

// Full-pipeline chaos: reversed-delivery transports only exist below the
// engine, but salt-driven stalls + jittered chunks + the fast engines'
// merge-on-arrival rounds compose across the whole delta_color stack. Run
// the hardest multi-component workload a few salted times and check the
// validity contract each time.
TEST(FastMode, SaltedFastRunsOnMultiComponentWorkload) {
  const Graph g = triangle_cactus(3000);
  DeltaColoringOptions det_opt;
  det_opt.seed = 9;
  det_opt.small_variant_radius_cap = 2;
  det_opt.num_threads = 1;
  const DeltaColoringResult det =
      delta_color(g, Algorithm::kRandomizedSmall, det_opt);
  ASSERT_GE(det.stats.leftover_components, 1)
      << "workload no longer exercises the Phase-(6) fan-out";

  for (std::uint64_t salt : {0ull, 5ull, 11ull}) {
    DeltaColoringOptions opt = det_opt;
    opt.mode = ExecutionMode::kFast;
    opt.num_threads = 8;
    opt.perturb_salt = salt;
    const DeltaColoringResult fast =
        delta_color(g, Algorithm::kRandomizedSmall, opt);
    expect_valid_fast_result(g, fast, det,
                             "triangle-cactus salt=" + std::to_string(salt));
  }
}

}  // namespace
}  // namespace deltacol
