/// \file
/// Public facade of the library: distributed Delta-coloring.
///
/// Implements the paper's algorithms:
///   * kDeterministic        — Theorem 4: ruling set + layering + distributed
///                             Brooks for the base layer.
///   * kRandomizedLarge      — Theorem 3 (Delta >= 4): DCC removal, marking /
///                             T-nodes, shattering, small components, layered
///                             unwind (Phases (1)-(9)).
///   * kRandomizedSmall      — Theorem 1 (Delta >= 3, constant): backoff 12,
///                             r = Theta(log log n).
///   * kBaselineND           — Theorem 21 = [PS95] baseline: network-
///                             decomposition-scheduled layering.
///   * kBaselineGreedyBrooks — natural baseline: distributed (Delta+1)-
///                             coloring, then repair the overflow color class
///                             with scheduled Brooks fixes.
///
/// All algorithms return a proper coloring with Delta = max degree colors and
/// a per-phase round ledger. Non-nice components (cliques of size <= Delta,
/// cycles, paths, components of smaller max degree) are handled by a direct
/// (deg+1)-list instance, exactly as a deployment would.
#pragma once

#include <cstdint>
#include <string>

#include "coloring/coloring.h"
#include "core/layering.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "local/round_ledger.h"
#include "runtime/execution_mode.h"

namespace deltacol {

/// Selects which of the paper's algorithms (or baselines) delta_color runs.
enum class Algorithm {
  kDeterministic,         ///< Theorem 4: deterministic via ruling sets.
  kRandomizedLarge,       ///< Theorem 3: randomized, requires Delta >= 4.
  kRandomizedSmall,       ///< Theorem 1: randomized, tuned for constant Delta.
  kBaselineND,            ///< Theorem 21 = [PS95] network-decomposition baseline.
  kBaselineGreedyBrooks,  ///< (Delta+1)-color greedily, repair overflow class.
};

/// Short stable identifier for \p a (used in logs, benches, CSV output).
std::string algorithm_name(Algorithm a);

/// Tuning knobs for delta_color. The defaults reproduce the paper's behaviour
/// at laptop scale; every field is safe to leave untouched.
struct DeltaColoringOptions {
  /// Master seed for all randomness in the run (runs are reproducible).
  std::uint64_t seed = 1;

  /// Phase (1) DCC-detection radius r for the large-Delta variant; the small
  /// variant derives r = Theta(log log n) from n (clamped to
  /// small_variant_radius_cap to keep ball sizes laptop-sized).
  int dcc_radius = 2;
  int small_variant_radius_cap = 6;

  /// Marking-process parameters. backoff < 0 means the paper's default (6
  /// large / 12 small). selection_prob < 0 means auto: the paper's
  /// Delta^{-6} is asymptotically correct but vanishes at laptop scale, so
  /// auto picks max(Delta^{-6}, 1/(8*Delta)); every node left unhappy is
  /// handled by the (always correct) later phases either way. Set
  /// use_paper_constants to force p = Delta^{-6}.
  int backoff = -1;
  double selection_prob = -1.0;
  bool use_paper_constants = false;

  /// Engine for the per-layer (deg+1)-list instances.
  ListEngine list_engine = ListEngine::kDeterministic;

  /// Strict mode disables all repair fallbacks (tests use this to verify the
  /// paper path); violations then throw ContractViolation.
  bool strict = false;

  /// Full-run retries with fresh randomness if a randomized run throws.
  int max_retries = 2;

  /// Worker threads for the parallel execution runtime (src/runtime/):
  /// connected components run concurrently and the per-node phases (message
  /// rounds, Linial, list-coloring sweeps, DCC detection) execute as chunked
  /// parallel-for loops. Affects wall-clock speed ONLY — colorings, round
  /// ledgers and phase stats are bit-for-bit identical for every value
  /// (enforced by tests/test_parallel_determinism.cpp). <= 1 runs fully
  /// serial; 0 means "use all hardware threads".
  int num_threads = 1;

  /// Shards for the partitioned execution layer (graph/partition.h +
  /// runtime/mailbox.h): vertices split into `num_shards` contiguous
  /// ranges, connected components are placed on the shard owning their
  /// lowest vertex, per-node sweeps run shard-major, and scheduled Brooks
  /// fixes group by home shard. Today every shard executes in-process on
  /// the same ThreadPool (the InProcessTransport); the option exists so
  /// that moving to a distributed Transport is a backend swap, not an
  /// engine change. Like num_threads this affects placement and wall-clock
  /// ONLY — colorings, ledgers and stats are bit-for-bit identical for
  /// every (num_shards, num_threads) pair (enforced by the shard golden
  /// tests in tests/test_parallel_determinism.cpp). <= 1 runs unsharded.
  int num_shards = 1;

  /// How vertices are assigned to shards (graph/partition.h):
  /// kContiguous splits the raw id space into balanced ascending ranges —
  /// the pessimistic baseline where ≈ (S-1)/S of all edges cross shards on
  /// wild-id inputs. kCluster runs the deterministic locality renumbering
  /// pre-pass (graph/renumber.h: BFS ball growing + DFS linearization) so
  /// each shard owns a locality-dense region and cross-shard traffic drops
  /// to the cluster boundary (experiment E18). Like num_shards this affects
  /// placement, message routing and wall-clock ONLY — colorings, ledgers
  /// and stats are bit-for-bit identical for every strategy (enforced by
  /// tests/test_renumber.cpp). Ignored at num_shards <= 1.
  PartitionStrategy partition = PartitionStrategy::kContiguous;

  /// CONGEST(B) bandwidth cap in bits per directed edge per round
  /// (local/round_ledger.h). <= 0 (the default) runs in the LOCAL model:
  /// every message round costs 1. A positive B puts every ledger of the run
  /// (including per-component and scheduler-private child ledgers) into
  /// congest mode: a message round whose heaviest directed edge carries W
  /// wire bits (MessageSize, runtime/message_size.h) is charged
  /// ceil(W / B) rounds. Pure accounting overlay — execution, colorings and
  /// stats are bit-for-bit identical to LOCAL for every B; only the charged
  /// round totals grow, monotonically as B shrinks (enforced by
  /// tests/test_congest.cpp).
  std::int64_t congest_bits = 0;

  /// Execution mode of the parallel runtime (runtime/execution_mode.h).
  /// kDeterministic (default): colorings, ledgers and stats are bit-for-bit
  /// identical for every (threads, shards, partition) shape — the reference
  /// oracle, pinned byte-for-byte by tests/test_golden_determinism.cpp.
  /// kFast: the runtime drops replay/merge ordering wherever the algorithms
  /// only need *a* valid outcome — atomics-based frontier claiming,
  /// merge-on-arrival inboxes without the stable sender sort, first-come
  /// work claiming in the component fan-outs, fused merge+receive barriers.
  /// Only VALIDITY is then guaranteed: a proper Delta-coloring, the same
  /// color-count bound, rounds within the deterministic mode's bound,
  /// CONGEST charges from the same order-free max fold (enforced by
  /// tests/test_fast_mode.cpp under schedule perturbation). CLI: --mode fast.
  ExecutionMode mode = ExecutionMode::kDeterministic;

  /// Schedule-perturbation salt, a chaos-testing knob (0 = off, the
  /// default). A nonzero salt makes the run's ThreadPool jitter its range
  /// chunk counts and inject sub-millisecond stalls ahead of chunk bodies —
  /// pseudo-randomly from the salt, but as a pure function of (salt, shape),
  /// so deterministic-mode results remain bit-identical (the chunk contract
  /// says boundaries are never observable) while fast-mode runs see hostile
  /// interleavings. Wall-clock only in deterministic mode; the fast-mode
  /// cross-validation harness sweeps salts to hunt schedule-dependent bugs.
  std::uint64_t perturb_salt = 0;
};

/// Per-phase observability of one delta_color run: how much work each phase
/// of the paper's pipeline did. Fields are 0 for phases the chosen algorithm
/// does not execute. Counters aggregate over all connected components of the
/// input (sums, except max_leftover_component which is a maximum), so they
/// are independent of the order — or concurrency — in which components ran.
struct PhaseStats {
  int num_dccs_selected = 0;       ///< Phase (1)
  int base_layer_size = 0;         ///< |B0|
  int num_b_layers = 0;            ///< s
  int num_selected = 0;            ///< Phase (4), after backoff
  int num_tnodes = 0;              ///< surviving T-nodes after Phase (5)
  int num_marked = 0;              ///< marked (color-1) vertices kept
  int num_c_layers = 0;
  int h_vertices = 0;              ///< |H| = remainder after Phase (3)
  int happy_vertices = 0;          ///< vertices absorbed into C-layers
  int leftover_vertices = 0;       ///< |L| entering Phase (6)
  int leftover_components = 0;
  int max_leftover_component = 0;
  int anchors_empty_fallbacks = 0; ///< Phase (6) fallback path uses
  int brooks_fixes = 0;            ///< distributed Brooks invocations
  int repairs = 0;                 ///< emergency repair completions
  int retries_used = 0;
};

/// Everything delta_color produces: the coloring itself plus the round
/// ledger and phase statistics needed to reproduce the paper's experiments.
struct DeltaColoringResult {
  Coloring coloring;  ///< Proper coloring with colors in {0..delta-1}.
  int delta = 0;      ///< Palette size = max degree of the input graph.
  RoundLedger ledger; ///< LOCAL-model rounds charged, broken down by phase.
  PhaseStats stats;   ///< Per-phase work counters.
};

/// Delta-colors \p g with Delta = g.max_degree() colors.
///
/// \param g    Input graph. Requires Delta >= 3 (>= 4 for kRandomizedLarge)
///             and that no component is a (Delta+1)-clique (Brooks'
///             condition); otherwise throws ContractViolation.
/// \param alg  Which algorithm/baseline to run.
/// \param opt  Tuning knobs; the defaults are fine for most uses.
/// \return A validated proper Delta-coloring plus its round ledger and
///         phase statistics.
DeltaColoringResult delta_color(const Graph& g, Algorithm alg,
                                const DeltaColoringOptions& opt = {});

}  // namespace deltacol
