#include "mis/luby_sync.h"

#include <string>

#include "runtime/mailbox.h"
#include "runtime/parallel_sync_engine.h"
#include "util/check.h"

namespace deltacol {

namespace {

enum class NodeStatus { kActive, kInMis, kOut };

struct NodeState {
  NodeStatus status = NodeStatus::kActive;
  std::uint64_t priority = 0;
  Rng rng{0};
};

// Messages carry either a priority announcement or a join notification.
struct Msg {
  bool is_join = false;
  std::uint64_t priority = 0;
};

}  // namespace

// Wire size registration (runtime/message_size.h): 1-bit flag + 64-bit
// priority, matching the kLubyMessageBits constant the tests pin.
template <>
struct MessageSize<Msg> {
  static std::int64_t bits(const Msg&) { return kLubyMessageBits; }
};
static_assert(kLubyMessageBits == 1 + 64,
              "Luby wire format: 1-bit join flag + 64-bit priority");

// Wire codec registration (net/wire_codec.h), field by field beside the
// sizing above: 1 byte for the sub-byte flag + 8 bytes priority = 9 bytes =
// ceil(1/8) + ceil(64/8) — the per-field rounding the fuzz suite pins.
template <>
struct WireCodec<Msg> {
  static std::size_t bytes(const Msg&) { return 1 + 8; }
  static void encode(const Msg& m, WireWriter& w) {
    WireCodec<bool>::encode(m.is_join, w);
    WireCodec<std::uint64_t>::encode(m.priority, w);
  }
  static Msg decode(WireReader& r) {
    Msg m;
    m.is_join = WireCodec<bool>::decode(r);
    m.priority = WireCodec<std::uint64_t>::decode(r);
    return m;
  }
};

std::vector<bool> luby_mis_message_passing(const Graph& g, Rng& rng,
                                           RoundLedger& ledger,
                                           std::string_view phase,
                                           ThreadPool* pool,
                                           ShardRuntime* shards) {
  const int n = g.num_vertices();
  using Engine = ParallelSyncEngine<NodeState, Msg>;
  Engine engine(g, ledger, std::string(phase), pool, shards);
  // A distributed rank is owner-computed (DESIGN.md §6): the engine holds
  // owned-only state, so every sweep below runs over the local shard's
  // owned list and the termination test / result extraction go through the
  // transport's deterministic collectives instead of reading global state.
  const bool distributed = engine.owner_local_state();
  const int local = distributed ? shards->transport().local_shard() : -1;

  // LOCAL-model nodes own private randomness: seed each node once from the
  // caller's stream (private coins, not communication) — serially, so the
  // per-node streams are thread-count independent. Distributed ranks still
  // advance the caller's stream n times (stream identity with every other
  // shape) but keep only their owned nodes' streams.
  for (int v = 0; v < n; ++v) {
    Rng node_rng = rng.split();
    if (!distributed || shards->partition().shard_of(v) == local) {
      engine.state(v).rng = std::move(node_rng);
    }
  }

  // Per-vertex sweep helper: all vertices in-process, owned vertices only
  // on a distributed rank (the bodies are v-private either way).
  const auto sweep = [&](const auto& body) {
    if (distributed) {
      const GraphView& view = shards->view(local);
      pooled_for(pool, 0, view.num_owned(),
                 [&](int i) { body(view.owned_vertex(i)); });
      return;
    }
    pooled_for(pool, 0, n, body);
  };

  int remaining = n;
  while (remaining > 0) {
    // Private coin flips — no communication round. Each node draws from its
    // own Rng (v-private, so any placement yields the same streams).
    sweep([&](int v) {
      NodeState& s = engine.state(v);
      if (s.status == NodeStatus::kActive) s.priority = s.rng.next_u64();
    });
    // Round A: actives announce priorities; local minima join.
    engine.round(
        [&g](int v, const NodeState& s, Engine::Outbox& out) {
          if (s.status == NodeStatus::kActive) {
            for (int u : g.neighbors(v)) out.push_back({u, {false, s.priority}});
          }
        },
        [](int v, NodeState& s, Engine::Inbox in) {
          if (s.status != NodeStatus::kActive) return;
          bool local_min = true;
          for (const auto& [from, msg] : in) {
            if (msg.is_join) continue;
            if (msg.priority < s.priority ||
                (msg.priority == s.priority && from < v)) {
              local_min = false;
            }
          }
          if (local_min) s.status = NodeStatus::kInMis;
        });
    // Round B: joiners notify, active neighbors drop out.
    engine.round(
        [&g](int v, const NodeState& s, Engine::Outbox& out) {
          if (s.status == NodeStatus::kInMis) {
            for (int u : g.neighbors(v)) out.push_back({u, {true, 0}});
          }
        },
        [](int, NodeState& s, Engine::Inbox in) {
          if (s.status != NodeStatus::kActive) return;
          for (const auto& [from, msg] : in) {
            (void)from;
            if (msg.is_join) {
              s.status = NodeStatus::kOut;
              return;
            }
          }
        });
    // Termination: count actives. Distributed ranks count their owned
    // actives and fold the counts deterministically across ranks — every
    // rank leaves the loop on the same iteration, by construction.
    if (distributed) {
      const GraphView& view = shards->view(local);
      std::int64_t active = 0;
      for (int i = 0; i < view.num_owned(); ++i) {
        if (engine.state(view.owned_vertex(i)).status == NodeStatus::kActive) {
          ++active;
        }
      }
      remaining =
          static_cast<int>(shards->transport().allreduce_sum(active));
      continue;
    }
    remaining = 0;
    for (int v = 0; v < n; ++v) {
      if (engine.state(v).status == NodeStatus::kActive) ++remaining;
    }
  }
  // Result extraction. Distributed ranks know only their shard's flags:
  // the deterministic end-of-run gather (Transport::gather_colors)
  // reassembles the global MIS on every rank, bit-identical to the
  // in-process shapes.
  std::vector<bool> out(static_cast<std::size_t>(n), false);
  if (distributed) {
    const GraphView& view = shards->view(local);
    std::vector<int> flags(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < view.num_owned(); ++i) {
      const int v = view.owned_vertex(i);
      flags[static_cast<std::size_t>(v)] =
          engine.state(v).status == NodeStatus::kInMis ? 1 : 0;
    }
    shards->transport().gather_colors(shards->partition(), flags);
    for (int v = 0; v < n; ++v) {
      out[static_cast<std::size_t>(v)] = flags[static_cast<std::size_t>(v)] == 1;
    }
    return out;
  }
  for (int v = 0; v < n; ++v) {
    out[static_cast<std::size_t>(v)] = engine.state(v).status == NodeStatus::kInMis;
  }
  return out;
}

}  // namespace deltacol
