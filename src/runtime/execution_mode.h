/// \file
/// Execution-mode switch of the parallel runtime: bit-exact replay vs
/// relaxed-order speed (ROADMAP direction 5, DESIGN.md §6 "Fast mode").
///
/// **kDeterministic** (the default, and the reference oracle) keeps every
/// ordering discipline the runtime was built on: two-phase frontier replay
/// (graph/frontier_bfs.h), shard-major stable-sorted inbox merges
/// (runtime/parallel_sync_engine.h, local/sync_engine.h), static chunk
/// partitions and shard-placed fan-outs (runtime/component_scheduler.h,
/// runtime/mailbox.h). Results are bit-identical for every
/// (threads, shards, partition) shape.
///
/// **kFast** drops those orderings wherever the algorithms only need *a*
/// valid outcome, not *the* serial one: atomics-based first-claim frontier
/// expansion, merge-on-arrival inboxes with no stable sort, first-come work
/// claiming in the component fan-outs, and fused merge+receive barriers.
/// The contract shrinks to VALIDITY — a proper Delta-coloring within the
/// proven round bounds, CONGEST charges computed by the same order-free max
/// fold — and is pinned by the cross-validation harness
/// (tests/test_fast_mode.cpp) under randomized chunking, injected
/// stalls and adversarial delivery orders. Deterministic-mode behaviour is
/// untouched by construction (the fast paths are opt-in branches), which the
/// pre-PR golden regression test (tests/test_golden_determinism.cpp) pins
/// byte-for-byte.
#pragma once

#include <cstring>

namespace deltacol {

enum class ExecutionMode {
  kDeterministic,  ///< Bit-exact replay/merge ordering (the reference).
  kFast,           ///< Relaxed ordering; only validity is guaranteed.
};

/// How a distributed run moves one round's envelopes between ranks
/// (ROADMAP direction 1 follow-on; DESIGN.md §6 "Owner-compute").
///
/// **kReplicated** (the default, and the differential oracle): every rank
/// serializes its full mailbox row, all-gathers it, and replays the merge +
/// receive for all S shards — per-rank compute is O(n) and wire traffic is
/// O(S × total bytes), but the discipline is simple and every rank holds the
/// complete global state at all times.
///
/// **kOwnerRouted**: every rank owns only its shard's state end-to-end.
/// Only the slots addressed to *other* ranks are encoded (local-slot
/// envelopes never touch the codec), point-to-point frames replace the
/// all-gather, and merge + receive run only for the local shard — per-rank
/// work drops to O(n/S + halo) and the wire carries exactly the cross-shard
/// payload a locality partition (graph/renumber.h) leaves behind. A
/// deterministic end-of-run gather reassembles the global result on every
/// rank, bit-identical to the replicated path (the shard-major merge rule
/// makes each shard's inbox independent of other shards' local state).
/// In-process runs honor the policy too — off-diagonal slots round-trip
/// through the wire codec — so the hermetic zoo differential covers both
/// policies without sockets.
enum class ExchangePolicy {
  kReplicated,   ///< Full-row all-gather + replicated merge (the oracle).
  kOwnerRouted,  ///< Point-to-point cross slots only; rank-local merge.
};

/// Short stable identifier (logs, benches, CSV output).
inline const char* exchange_policy_name(ExchangePolicy p) {
  return p == ExchangePolicy::kOwnerRouted ? "owner" : "replicated";
}

/// Parses a CLI spelling ("replicated" or "owner"/"owner-routed") into
/// \p out; returns false (leaving \p out untouched) on anything else.
inline bool parse_exchange_policy(const char* s, ExchangePolicy* out) {
  if (std::strcmp(s, "replicated") == 0) {
    *out = ExchangePolicy::kReplicated;
    return true;
  }
  if (std::strcmp(s, "owner") == 0 || std::strcmp(s, "owner-routed") == 0) {
    *out = ExchangePolicy::kOwnerRouted;
    return true;
  }
  return false;
}

/// Short stable identifier (logs, benches, CSV output).
inline const char* execution_mode_name(ExecutionMode m) {
  return m == ExecutionMode::kFast ? "fast" : "deterministic";
}

/// Parses a CLI spelling ("deterministic"/"det" or "fast") into \p out;
/// returns false (leaving \p out untouched) on anything else.
inline bool parse_execution_mode(const char* s, ExecutionMode* out) {
  if (std::strcmp(s, "deterministic") == 0 || std::strcmp(s, "det") == 0) {
    *out = ExecutionMode::kDeterministic;
    return true;
  }
  if (std::strcmp(s, "fast") == 0) {
    *out = ExecutionMode::kFast;
    return true;
  }
  return false;
}

}  // namespace deltacol
