/// \file
/// Multi-threaded, shard-ready synchronous message-passing engine.
///
/// The library's one message-passing engine. One synchronous LOCAL round =
/// all nodes send, all messages delivered, all nodes receive, 1 round
/// charged. The tests keep a naive serial engine with the same callback
/// types (tests/sync_engine.h) as the reference for inbox order.
/// Every path delivers a round's messages the same way: into one flat
/// **inbox arena** the engine owns and reuses across rounds. A counting pass
/// over destinations sizes every inbox, a prefix sum lays them out, and a
/// scatter in merge order fills them; receive(v) gets a span into the
/// arena. send(v) fills a cleared outbox the engine owns (one per send
/// chunk), so a round allocates nothing once the buffers have grown.
///
/// **Chunked (no ShardRuntime attached).** Each round runs in two barriers
/// on a ThreadPool (one chunk on the calling thread without a pool):
///
///   1. **Parallel send.** Contiguous sender ranges are dispatched as chunks;
///      each chunk stages its messages in its own buffer, in sender order.
///   2. **Merge.** Chunk buffers are scattered into the arena in chunk order
///      = ascending sender order, exactly the order the serial engine fills
///      inboxes in, so every inbox is sorted by construction.
///   3. **Parallel receive.** Every node consumes its inbox independently.
///
/// **Sharded (a ShardRuntime attached).** The round is expressed against
/// the shard layer (graph/partition.h + runtime/mailbox.h): every send goes
/// through the per-(source-shard, destination-shard) mailbox and every
/// barrier is a Transport::run_shards call. In process:
///
///   1. **Sharded send.** Each source shard sweeps its owned vertices in
///      ascending id order and posts envelopes into its mailbox row —
///      straight from the outbox when the sweep is one chunk, else staged
///      per chunk on the pool and replayed in chunk order.
///   2. **Exchange.** A no-op in process (the run_shards barrier already
///      published the shared-memory mailbox).
///   3. **Sharded merge + receive.** Each destination shard reads its
///      mailbox column in place, in ascending source-shard order, scatters
///      it into its own arena, and receives.
///
/// **Distributed (Transport::local_shard() >= 0): owner-compute.** Each
/// rank holds state for its OWN shard only (states_ sized to
/// GraphView::num_owned(), indexed by layout offset within the shard),
/// encodes only the off-diagonal slots of its row (Mailbox::encode_owned_row
/// — the diagonal never touches the codec), ships them point-to-point
/// (Transport::exchange_owned), and merges + receives only its own column.
/// Per-rank work is O(n/S + halo) and the wire carries only cross-shard
/// payload; results stay bit-identical to the in-process run because each
/// shard's merged inbox never depends on any other shard's local state
/// (DESIGN.md §6, "Owner-compute"). Drivers that sweep or read global state
/// must consult owner_local_state() and use the transport's
/// allreduce/gather collectives (mis/luby_sync.cpp is the model).
///
/// **Inbox order.** receive() sees ascending senders, ties in emission
/// order — byte-for-byte what SyncEngine produces. The counting scatter
/// yields that order by construction whenever the merge order is ascending
/// sender order: the serial and chunked paths, and contiguous partitions
/// (shard-major = id-major). Only a renumbered locality-aware partition
/// (`--partition cluster`; DESIGN.md §6) can leave an inbox out of order;
/// every inbox is checked with is_sorted, and a stable sort by sender runs
/// only on those that fail. Stable suffices because every staging path
/// presents one sender's messages to one destination in emission order,
/// within one slot. Colorings, ledgers and stats are bit-identical for
/// every (shards, threads, partition) combination, including pool ==
/// nullptr and no runtime. The test suite pins this equivalence down
/// (tests/test_runtime.cpp, tests/test_mailbox.cpp, tests/test_renumber.cpp,
/// tests/test_golden_determinism.cpp).
///
/// Additional contract on the callbacks (trivially satisfied by per-node
/// LOCAL algorithms): send(v, state, out) reads only v's state and the
/// graph; receive(v, state, inbox) mutates only v's state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "local/round_ledger.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"
#include "runtime/message_size.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

template <typename State, typename Msg>
class ParallelSyncEngine {
 public:
  /// Messages one node sends in one round: (neighbor, payload) pairs.
  using Outbox = std::vector<std::pair<int, Msg>>;
  /// send(v, state, out) appends v's messages to `out`, which the engine
  /// hands over empty and reuses across senders and rounds.
  using SendFn = std::function<void(int, const State&, Outbox&)>;
  /// (sender, payload) pairs in ascending sender order, ties in emission
  /// order: a view into the engine's per-round arena, valid only for the
  /// duration of the receive call.
  using Inbox = std::span<const std::pair<int, Msg>>;
  using RecvFn = std::function<void(int, State&, Inbox)>;

  /// `pool` may be nullptr (or single-threaded): rounds then execute on the
  /// calling thread, identically to SyncEngine. `shards` may be nullptr:
  /// rounds then use the chunked strategy; attaching a runtime (built over
  /// the same graph) routes every round through its mailbox + transport and
  /// records per-round message volume on it.
  ParallelSyncEngine(const Graph& g, RoundLedger& ledger, std::string phase,
                     ThreadPool* pool = nullptr,
                     ShardRuntime* shards = nullptr)
      : graph_(g),
        ledger_(ledger),
        phase_(std::move(phase)),
        pool_(pool),
        shards_(shards) {
    int send_shards = 1;
    int arenas = 1;
    if (shards_ != nullptr) {
      DC_REQUIRE(shards_->partition().num_vertices() == g.num_vertices(),
                 "shard runtime was built over a different graph");
      mailbox_.emplace(&shards_->partition());
      local_shard_ = shards_->transport().local_shard();
      if (local_shard_ >= 0) {
        owned_base_ = shards_->partition().begin(local_shard_);
      }
      send_shards = shards_->num_shards();
      arenas = local_shard_ >= 0 ? 1 : send_shards;
    }
    send_chunks_.resize(static_cast<std::size_t>(send_shards));
    arenas_.resize(static_cast<std::size_t>(arenas));
    // Distributed ranks hold state for their OWN shard only — O(n/S) per
    // rank, allocated from the GraphView's owned count; in process every
    // vertex is local (halo values arrive as messages, never as state).
    states_.resize(static_cast<std::size_t>(
        local_shard_ >= 0 ? shards_->view(local_shard_).num_owned()
                          : g.num_vertices()));
  }

  const Graph& graph() const { return graph_; }

  /// True when this engine holds owned-only state (a distributed
  /// transport): state(v) is then valid ONLY for vertices the local shard
  /// owns.
  bool owner_local_state() const { return local_shard_ >= 0; }

  State& state(int v) { return states_[state_index(v)]; }
  const State& state(int v) const { return states_[state_index(v)]; }

  /// Executes one synchronous round over the whole graph and charges 1 round.
  void round(const SendFn& send, const RecvFn& receive) {
    if (shards_ != nullptr) {
      round_sharded(send, receive);
      return;
    }
    const int n = graph_.num_vertices();
    // Send: contiguous sender ranges, each staged by its chunk in sender
    // order (one chunk, on the calling thread, without a pool).
    const int num_chunks = chunk_count(n);
    std::vector<SendChunk>& chunks = send_chunks_[0];
    prepare_chunks(chunks, num_chunks);
    pooled_ranges(pool_, 0, n, [&](int c, int lo, int hi) {
      for (int v = lo; v < hi; ++v) {
        stage(send, v, chunks[static_cast<std::size_t>(c)]);
      }
    });
    // Merge: chunk order == ascending sender order, so the scatter leaves
    // every inbox sorted.
    InboxArena& arena = arenas_[0];
    arena.start(n);
    for (int c = 0; c < num_chunks; ++c) {
      for (const Envelope& e : chunks[static_cast<std::size_t>(c)].staged) {
        arena.count(e.to);
      }
    }
    arena.layout();
    for (int c = 0; c < num_chunks; ++c) {
      for (Envelope& e : chunks[static_cast<std::size_t>(c)].staged) {
        arena.place(e.to, e.from, std::move(e.msg));
      }
    }
    ledger_.charge_message_round(receive_arena(arena, 0, receive), phase_);
  }

 private:
  using Envelope = typename Mailbox<Msg>::Envelope;

  // One send chunk's buffers, kept across rounds: the outbox handed to
  // send() (cleared per sender) and the chunk's envelopes in sender order.
  struct SendChunk {
    Outbox out;
    std::vector<Envelope> staged;
  };

  // One destination range's inboxes for one round, flat: inbox i is
  // items[off[i], off[i + 1]). Built by a counting pass over destinations
  // (count), a prefix sum (layout) and a scatter in merge order (place);
  // both vectors keep their capacity across rounds.
  struct InboxArena {
    std::vector<std::size_t> off;
    std::vector<std::pair<int, Msg>> items;

    void start(int count) { off.assign(static_cast<std::size_t>(count) + 1, 0); }
    void count(int i) { ++off[static_cast<std::size_t>(i) + 1]; }
    // Counts -> starts, shifted one slot right: off[i + 1] becomes inbox
    // i's first index, and place() advances it to inbox i's end, which is
    // inbox i + 1's start.
    void layout() {
      std::size_t run = 0;
      for (std::size_t i = 1; i < off.size(); ++i) {
        const std::size_t c = off[i];
        off[i] = run;
        run += c;
      }
      items.resize(run);
    }
    void place(int i, int from, Msg&& msg) {
      auto& slot = items[off[static_cast<std::size_t>(i) + 1]++];
      slot.first = from;
      slot.second = std::move(msg);
    }
    int size() const { return static_cast<int>(off.size()) - 1; }
    std::span<std::pair<int, Msg>> inbox(int i) {
      const std::size_t lo = off[static_cast<std::size_t>(i)];
      return {items.data() + lo, off[static_cast<std::size_t>(i) + 1] - lo};
    }
  };

  // Global vertex id -> index into states_. The identity except on a
  // distributed rank, where states_ is indexed by owned position:
  // position_of(v) - begin(local) — O(1) for contiguous and renumbered
  // partitions alike (graph/partition.h).
  std::size_t state_index(int v) const {
    if (local_shard_ < 0) return static_cast<std::size_t>(v);
    const int i = shards_->partition().position_of(v) - owned_base_;
    DC_REQUIRE(i >= 0 && i < static_cast<int>(states_.size()),
               "owner-compute engine: state(v) asked for a vertex this rank "
               "does not own");
    return static_cast<std::size_t>(i);
  }

  // Chunks a sweep over `count` items is cut into: the pool's own
  // num_range_chunks (so pre-sized buffers match what pooled_ranges
  // dispatches), 1 without a pool.
  int chunk_count(int count) const {
    return pool_ != nullptr ? std::max(1, pool_->num_range_chunks(count)) : 1;
  }

  static void prepare_chunks(std::vector<SendChunk>& chunks, int num_chunks) {
    if (chunks.size() < static_cast<std::size_t>(num_chunks)) {
      chunks.resize(static_cast<std::size_t>(num_chunks));
    }
    for (int c = 0; c < num_chunks; ++c) {
      chunks[static_cast<std::size_t>(c)].staged.clear();
    }
  }

  // Runs send for v into the cleared `out` and hands every message to
  // sink(to, msg) after the LOCAL-model edge check.
  template <typename Sink>
  void send_from(const SendFn& send, int v, Outbox& out, const Sink& sink) {
    out.clear();
    send(v, state(v), out);
    for (auto& [to, msg] : out) {
      DC_REQUIRE(graph_.has_edge(v, to),
                 "LOCAL model: messages only travel along edges");
      sink(to, msg);
    }
  }

  // Sends for v into `chunk`'s staging buffer.
  void stage(const SendFn& send, int v, SendChunk& chunk) {
    send_from(send, v, chunk.out, [&](int to, Msg& msg) {
      chunk.staged.push_back(Envelope{to, v, std::move(msg)});
    });
  }

  // The receive sweep over a merged arena whose inbox i belongs to the
  // vertex at layout position base + i. Per inbox, in one pass: the stable
  // sort by sender, run only when the merge left the inbox out of order (a
  // renumbered partition's shard-major merge; the sort keeps ties in
  // emission order because each sender's messages to one destination sit
  // in one slot in emission order), the CONGEST load, and
  // receive. Every step touches only inbox i and state i, so one barrier
  // does all three. Returns the heaviest directed edge's bits (0 outside
  // CONGEST mode); the max fold is order-free, so the charge is
  // (shards, threads)-invariant.
  std::int64_t receive_arena(InboxArena& arena, int base,
                             const RecvFn& receive) {
    const int count = arena.size();
    const bool congest = ledger_.congest_bits() > 0;
    std::vector<std::int64_t> chunk_bits(
        static_cast<std::size_t>(chunk_count(count)), 0);
    const auto by_sender = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    pooled_ranges(pool_, 0, count, [&](int c, int lo, int hi) {
      std::int64_t heaviest = 0;
      for (int i = lo; i < hi; ++i) {
        const auto inbox = arena.inbox(i);
        if (!std::is_sorted(inbox.begin(), inbox.end(), by_sender)) {
          std::stable_sort(inbox.begin(), inbox.end(), by_sender);
        }
        if (congest) {
          heaviest = std::max(heaviest, max_edge_bits_in_inbox(Inbox(inbox)));
        }
        const int v =
            shards_ != nullptr ? shards_->partition().vertex_at(base + i) : i;
        receive(v, states_[local_shard_ >= 0 ? static_cast<std::size_t>(i)
                                             : static_cast<std::size_t>(v)],
                inbox);
      }
      chunk_bits[static_cast<std::size_t>(c)] = heaviest;
    });
    std::int64_t max_edge_bits = 0;
    for (std::int64_t b : chunk_bits) max_edge_bits = std::max(max_edge_bits, b);
    return max_edge_bits;
  }

  // Merges destination shard d's mailbox column in ascending source-shard
  // order into `arena` (indexed by layout offset within d), reading every
  // slot in place, then runs the receive sweep over d's owned vertices.
  std::int64_t merge_column(int d, InboxArena& arena, Mailbox<Msg>& mailbox,
                            const RecvFn& receive) {
    const VertexPartition& part = shards_->partition();
    const int num_shards = part.num_shards();
    const int base = part.begin(d);
    arena.start(part.size(d));
    for (int s = 0; s < num_shards; ++s) {
      for (const auto& e : mailbox.slot(s, d)) {
        arena.count(part.position_of(e.to) - base);
      }
    }
    arena.layout();
    for (int s = 0; s < num_shards; ++s) {
      for (auto& e : mailbox.slot(s, d)) {
        arena.place(part.position_of(e.to) - base, e.from, std::move(e.msg));
      }
    }
    return receive_arena(arena, base, receive);
  }

  // Source shard s's send sweep, posting into its mailbox row in ascending
  // owned order — ascending original sender id under every partition,
  // because owned lists ascend by construction (graph/partition.cpp). A
  // one-chunk sweep posts straight from the outbox; a chunked one stages
  // per chunk and replays chunk-major, which keeps sender order.
  void send_shard(const SendFn& send, int s, Mailbox<Msg>& mailbox) {
    const GraphView& view = shards_->view(s);
    const int count = view.num_owned();
    const int num_chunks = chunk_count(count);
    std::vector<SendChunk>& chunks = send_chunks_[static_cast<std::size_t>(s)];
    prepare_chunks(chunks, num_chunks);
    if (num_chunks == 1) {
      Outbox& out = chunks[0].out;
      for (int i = 0; i < count; ++i) {
        const int v = view.owned_vertex(i);
        send_from(send, v, out, [&](int to, Msg& msg) {
          mailbox.post(s, v, to, std::move(msg));
        });
      }
      return;
    }
    pooled_ranges(pool_, 0, count, [&](int c, int lo, int hi) {
      for (int i = lo; i < hi; ++i) {
        stage(send, view.owned_vertex(i), chunks[static_cast<std::size_t>(c)]);
      }
    });
    for (int c = 0; c < num_chunks; ++c) {
      for (Envelope& e : chunks[static_cast<std::size_t>(c)].staged) {
        mailbox.post(s, e.from, e.to, std::move(e.msg));
      }
    }
  }

  // The sharded strategy (see file comment). Three phases, two transport
  // barriers; all inter-shard data flows through the mailbox. On a
  // distributed backend (transport.local_shard() >= 0, e.g. the TCP
  // SocketTransport) run_shards invokes only the local rank's body, so the
  // send sweep is partitioned across processes and the round continues
  // owner-computed (round_owner_distributed).
  void round_sharded(const SendFn& send, const RecvFn& receive) {
    const int num_shards = shards_->num_shards();
    Transport& transport = shards_->transport();
    Mailbox<Msg>& mailbox = *mailbox_;
    mailbox.clear();

    // Barrier 1: each source shard runs its send sweep into its mailbox row.
    transport.run_shards([&](int s) { send_shard(send, s, mailbox); });

    if (local_shard_ >= 0) {
      round_owner_distributed(receive, num_shards, transport, mailbox);
      return;
    }
    transport.exchange();

    // Barrier 2: each destination shard merges its mailbox column in
    // ascending source-shard order into its arena and receives its owned
    // range.
    std::vector<std::int64_t> shard_bits(static_cast<std::size_t>(num_shards),
                                         0);
    transport.run_shards([&](int d) {
      shard_bits[static_cast<std::size_t>(d)] = merge_column(
          d, arenas_[static_cast<std::size_t>(d)], mailbox, receive);
    });

    // Volume + CONGEST folds on the calling thread (the tallies are
    // accumulated at post time).
    shards_->record_round(mailbox.slot_counts(), mailbox.slot_bits());
    std::int64_t max_edge_bits = 0;
    for (std::int64_t b : shard_bits) max_edge_bits = std::max(max_edge_bits, b);
    ledger_.charge_message_round(max_edge_bits, phase_);
  }

  // The distributed continuation of round_sharded (after Barrier 1 has
  // posted the local rank's row). Why rank-local merge cannot move a byte
  // (DESIGN.md §6, "Owner-compute"): shard d's inbox contents are exactly
  // the envelopes in column (*, d) — slots other ranks addressed to d plus
  // d's own diagonal slot — and the shard-major merge orders them using
  // only (source shard, emission position, sender id), never any other
  // shard's local state. So merging ONLY the local column, with the
  // diagonal slot never serialized and the off-diagonal slots arriving
  // point-to-point, reproduces byte-for-byte the inboxes the in-process
  // merge produces for this shard. The piggybacked tally rows reassemble
  // the full S×S counters, so record_round and the CONGEST max fold
  // (allreduce_max, order-free) charge exactly what every other shape
  // charges.
  void round_owner_distributed(const RecvFn& receive, int num_shards,
                               Transport& transport, Mailbox<Msg>& mailbox) {
    const int local = local_shard_;

    // Our posted row tallies ride along with the slots, so every rank can
    // rebuild the full matrix without a second collective.
    std::vector<std::int64_t> row_counts(static_cast<std::size_t>(num_shards));
    std::vector<std::int64_t> row_bits(static_cast<std::size_t>(num_shards));
    {
      const auto& counts = mailbox.slot_counts();
      const auto& bits = mailbox.slot_bits();
      for (int d = 0; d < num_shards; ++d) {
        const std::size_t idx = static_cast<std::size_t>(local) *
                                    static_cast<std::size_t>(num_shards) +
                                static_cast<std::size_t>(d);
        row_counts[static_cast<std::size_t>(d)] = counts[idx];
        row_bits[static_cast<std::size_t>(d)] = bits[idx];
      }
    }
    auto result = transport.exchange_owned(mailbox.encode_owned_row(local),
                                           std::move(row_counts),
                                           std::move(row_bits));
    DC_ENSURE(static_cast<int>(result.slots.size()) == num_shards &&
                  static_cast<int>(result.slot_counts.size()) ==
                      num_shards * num_shards &&
                  static_cast<int>(result.slot_bits.size()) ==
                      num_shards * num_shards,
              "exchange_owned returned a malformed result");
    for (int s = 0; s < num_shards; ++s) {
      if (s == local) continue;
      mailbox.fill(s, local,
                   decode_slot<Msg, Envelope>(
                       result.slots[static_cast<std::size_t>(s)]));
    }
    transport.exchange();

    // Rank-local merge + receive: only column (*, local), only owned
    // inboxes — indexed by layout offset, the same index states_ uses.
    const std::int64_t local_max =
        merge_column(local, arenas_[0], mailbox, receive);

    shards_->record_round(result.slot_counts, result.slot_bits);
    const std::int64_t max_edge_bits = ledger_.congest_bits() > 0
                                           ? transport.allreduce_max(local_max)
                                           : 0;
    ledger_.charge_message_round(max_edge_bits, phase_);
  }

  const Graph& graph_;
  RoundLedger& ledger_;
  std::string phase_;
  ThreadPool* pool_;
  ShardRuntime* shards_;
  int local_shard_ = -1;  // transport.local_shard(), cached at construction
  int owned_base_ = 0;    // partition().begin(local) on a distributed rank
  std::optional<Mailbox<Msg>> mailbox_;
  // Round buffers, reused across rounds: per send shard (1 unsharded), one
  // SendChunk per chunk; per merged destination shard (1 unsharded or
  // distributed), one inbox arena.
  std::vector<std::vector<SendChunk>> send_chunks_;
  std::vector<InboxArena> arenas_;
  std::vector<State> states_;
};

}  // namespace deltacol
