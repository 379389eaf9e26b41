// E19 — ExecutionMode::kFast vs kDeterministic (runtime/execution_mode.h).
//
// The claim: dropping the determinism discipline's ordering passes — the
// inbox sort fallback, the two-phase frontier replay, the static chunk
// ranges of the Brooks fixes — buys wall-clock on large graphs while
// every run still produces a valid Delta-coloring with the same palette
// bound and a round total within the deterministic reference.
//
// Rows: (n, threads) per headline algorithm, n ∈ {100k, 1M}. Each
// row runs BOTH modes on the same graph and seed and reports:
//   - seconds_det / seconds_fast: wall-clock of one delta_color call;
//   - speedup: seconds_det / seconds_fast;
//   - rounds_det / rounds_fast: ledger totals (fast must stay <= det);
//   - valid: 1 iff both colorings pass validate_delta_coloring AND the fast
//     ledger is within the deterministic total — the acceptance criterion,
//     asserted per row.
//
// CAVEAT on 1-core machines (and the threads = 1 rows everywhere): with a
// single worker the runtime takes its inline serial paths in both modes, so
// fast mode's claim there is only "no slower than deterministic minus the
// skipped sorts" — expect speedup ≈ 1. The relaxed-order wins need real
// parallelism; read the threads = 8 rows on multi-core hardware for the
// headline numbers. Regenerate with
// DELTACOL_BENCH_JSON=BENCH_e19.json ./build-mb/bench_e19_fast;
// BENCH_e19.json carries the landing run.
#include <chrono>

#include "bench_common.h"

namespace deltacol::bench {
namespace {

struct TimedRun {
  double seconds = 0.0;
  DeltaColoringResult res;
};

TimedRun timed_delta_color(const Graph& g, Algorithm alg,
                           const DeltaColoringOptions& opt) {
  TimedRun out;
  const auto t0 = std::chrono::steady_clock::now();
  out.res = delta_color(g, alg, opt);
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

void run_fast_vs_det(benchmark::State& state, Algorithm alg,
                     const std::string& family) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const Graph g = make_regular(n, 8, 77);

  DeltaColoringOptions det_opt;
  det_opt.seed = 9;
  det_opt.num_threads = threads;
  DeltaColoringOptions fast_opt = det_opt;
  fast_opt.mode = ExecutionMode::kFast;

  TimedRun det, fast;
  for (auto _ : state) {
    det = timed_delta_color(g, alg, det_opt);
    fast = timed_delta_color(g, alg, fast_opt);
  }

  bool valid = fast.res.ledger.total() <= det.res.ledger.total();
  try {
    validate_delta_coloring(g, det.res.coloring, det.res.delta);
    validate_delta_coloring(g, fast.res.coloring, fast.res.delta);
  } catch (const ContractViolation&) {
    valid = false;
  }

  state.counters["threads"] = threads;
  state.counters["seconds_det"] = det.seconds;
  state.counters["seconds_fast"] = fast.seconds;
  state.counters["speedup"] =
      fast.seconds > 0.0 ? det.seconds / fast.seconds : 0.0;
  state.counters["rounds_det"] = static_cast<double>(det.res.ledger.total());
  state.counters["rounds_fast"] = static_cast<double>(fast.res.ledger.total());
  state.counters["valid"] = valid ? 1.0 : 0.0;
  csv_row(state, family);
}

void E19_RandomizedLarge(benchmark::State& state) {
  run_fast_vs_det(state, Algorithm::kRandomizedLarge, "e19_fast_large");
}

void E19_RandomizedSmall(benchmark::State& state) {
  run_fast_vs_det(state, Algorithm::kRandomizedSmall, "e19_fast_small");
}

}  // namespace
}  // namespace deltacol::bench

// (n, threads): the serial sanity row and the pooled row per size.
BENCHMARK(deltacol::bench::E19_RandomizedLarge)
    ->Args({100000, 1})
    ->Args({100000, 8})
    ->Args({1000000, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E19_RandomizedSmall)
    ->Args({100000, 8})
    ->Args({1000000, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
