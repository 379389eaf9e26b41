// The shard execution layer (runtime/mailbox.h): Transport semantics,
// mailbox routing + shard-major merge order, the sharded
// ParallelSyncEngine path (bit-identical to the serial engine for every
// shards x threads combination, even under a scheduling-perverse custom
// Transport), and message-volume accounting against GraphView cross-edge
// counts.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "local/round_ledger.h"
#include "local/sync_engine.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"
#include "runtime/parallel_sync_engine.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(InProcessTransport, RunsEveryShardExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    InProcessTransport transport(7, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(transport.num_shards(), 7);
    std::vector<int> hits(7, 0);
    transport.run_shards([&](int s) { ++hits[static_cast<std::size_t>(s)]; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(Mailbox, RoutesByDestinationOwnerAndKeepsPostOrder) {
  const VertexPartition part = VertexPartition::contiguous(10, 3);
  // Shards: [0,3), [3,6), [6,10).
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/4, 100);  // -> slot (0, 1)
  mb.post(0, /*from=*/1, /*to=*/9, 101);  // -> slot (0, 2)
  mb.post(0, /*from=*/2, /*to=*/4, 102);  // -> slot (0, 1), after the first
  mb.post(2, /*from=*/7, /*to=*/0, 103);  // -> slot (2, 0)
  ASSERT_EQ(mb.slot(0, 1).size(), 2u);
  EXPECT_EQ(mb.slot(0, 1)[0].from, 1);
  EXPECT_EQ(mb.slot(0, 1)[0].msg, 100);
  EXPECT_EQ(mb.slot(0, 1)[1].from, 2);
  EXPECT_EQ(mb.slot(0, 1)[1].msg, 102);
  ASSERT_EQ(mb.slot(0, 2).size(), 1u);
  EXPECT_EQ(mb.slot(0, 2)[0].to, 9);
  ASSERT_EQ(mb.slot(2, 0).size(), 1u);
  EXPECT_EQ(mb.slot(2, 0)[0].msg, 103);
  EXPECT_TRUE(mb.slot(1, 1).empty());
  const auto counts = mb.slot_counts();
  ASSERT_EQ(counts.size(), 9u);
  EXPECT_EQ(counts[0 * 3 + 1], 2);
  EXPECT_EQ(counts[2 * 3 + 0], 1);
  mb.clear();
  EXPECT_TRUE(mb.slot(0, 1).empty());
}

// One dense flood round through the sharded engine: every node sends its id
// to every neighbor. Pins (a) inbox contents = sorted neighbor list,
// (b) per-slot volume = GraphView cross/internal edge counts.
TEST(ShardedEngine, FloodRoundDeliversExactlyTheAdjacency) {
  Rng rng(7);
  const Graph g = random_graph_max_degree(120, 6, 1.8, rng);
  const int n = g.num_vertices();
  for (int num_shards : {1, 2, 4}) {
    ThreadPool pool(4);
    ShardRuntime shards(g, num_shards, &pool);
    RoundLedger ledger;
    struct State {
      std::vector<int> heard;
    };
    ParallelSyncEngine<State, int> engine(g, ledger, "flood", &pool, &shards);
    engine.round(
        [&g](int v, const State&, std::vector<std::pair<int, int>>& out) {
          for (int u : g.neighbors(v)) out.push_back({u, v});
        },
        [](int, State& s, std::span<const std::pair<int, int>> inbox) {
          for (const auto& [from, msg] : inbox) {
            EXPECT_EQ(from, msg);
            s.heard.push_back(from);
          }
        });
    for (int v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto& heard = engine.state(v).heard;
      ASSERT_EQ(heard.size(), nbrs.size()) << "node " << v;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_EQ(heard[i], nbrs[i]) << "node " << v;
      }
    }
    EXPECT_EQ(ledger.total(), 1);
    // Volume accounting: one round, 2m envelopes, split per slot exactly as
    // the views count internal/cross edges.
    EXPECT_EQ(shards.rounds_recorded(), 1);
    EXPECT_EQ(shards.total_messages(), 2 * g.num_edges());
    std::int64_t cross = 0;
    for (int s = 0; s < shards.num_shards(); ++s) {
      const GraphView& view = shards.view(s);
      EXPECT_EQ(shards.slot_messages(s, s), 2 * view.internal_edges());
      for (int d = 0; d < shards.num_shards(); ++d) {
        if (d == s) continue;
        EXPECT_EQ(shards.slot_messages(s, d), view.cross_edges(d))
            << s << " -> " << d;
        cross += shards.slot_messages(s, d);
      }
    }
    EXPECT_EQ(shards.cross_shard_messages(), cross);
    if (num_shards == 1) {
      EXPECT_EQ(cross, 0);
    }
  }
}

std::pair<std::vector<bool>, std::int64_t> serial_luby(const Graph& g) {
  Rng rng(99);
  RoundLedger ledger;
  auto mis = luby_mis_message_passing(g, rng, ledger, "mis");
  return {mis, ledger.total()};
}

// Results must be bit-identical to the serial golden for every
// (shards, threads, B) shape, LOCAL and CONGEST(64).
TEST(ShardedEngine, LubyBitIdenticalForEveryShardsTimesThreads) {
  Rng grng(123);
  const Graph g = random_regular(400, 6, grng);
  const auto [serial_mis, serial_rounds] = serial_luby(g);
  EXPECT_TRUE(is_mis(g, serial_mis));
  for (std::int64_t bits : {std::int64_t{0}, std::int64_t{64}}) {
    // Per-B golden: the serial run under the same CONGEST cap.
    std::int64_t golden_rounds;
    {
      Rng rng(99);
      RoundLedger ledger;
      if (bits > 0) ledger.set_congest_bits(bits);
      const auto mis = luby_mis_message_passing(g, rng, ledger, "mis");
      EXPECT_EQ(mis, serial_mis);
      golden_rounds = ledger.total();
    }
    if (bits == 0) {
      EXPECT_EQ(golden_rounds, serial_rounds);
    }
    for (int num_shards : {1, 2, 3, 8}) {
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        ShardRuntime shards(g, num_shards, pool_ptr);
        Rng rng(99);
        RoundLedger ledger;
        if (bits > 0) ledger.set_congest_bits(bits);
        const auto mis =
            luby_mis_message_passing(g, rng, ledger, "mis", pool_ptr, &shards);
        EXPECT_EQ(mis, serial_mis) << num_shards << " shards, " << threads
                                   << " threads, B=" << bits;
        EXPECT_EQ(ledger.total(), golden_rounds)
            << num_shards << " shards, " << threads << " threads, B=" << bits;
        EXPECT_GT(shards.rounds_recorded(), 0);
      }
    }
  }
}

// A scheduling-perverse Transport: shards run in REVERSE order, serially.
// Results must not move — the merge is keyed on (shard id, chunk index,
// sender id), never on execution order.
class ReverseTransport final : public Transport {
 public:
  explicit ReverseTransport(int num_shards) : num_shards_(num_shards) {}
  int num_shards() const override { return num_shards_; }
  void run_shards(const std::function<void(int)>& body) override {
    for (int s = num_shards_ - 1; s >= 0; --s) body(s);
  }
  void exchange() override { ++exchanges_; }
  int exchanges() const { return exchanges_; }

 private:
  int num_shards_;
  int exchanges_ = 0;
};

TEST(ShardedEngine, ReverseShardOrderTransportIsObservationallyEquivalent) {
  Rng grng(31);
  const Graph g = random_regular(300, 4, grng);
  const auto [serial_mis, serial_rounds] = serial_luby(g);
  auto transport = std::make_unique<ReverseTransport>(5);
  ReverseTransport* raw = transport.get();
  ShardRuntime shards(g, 5, nullptr, std::move(transport));
  Rng rng(99);
  RoundLedger ledger;
  const auto mis =
      luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &shards);
  EXPECT_EQ(mis, serial_mis);
  EXPECT_EQ(ledger.total(), serial_rounds);
  // One exchange per round went through the custom backend.
  EXPECT_EQ(raw->exchanges(), static_cast<int>(shards.rounds_recorded()));
}

// --- the explicit drain/fill surface a serializing transport drives --------

TEST(Mailbox, FillDeliversWholeSlotAndTalliesCounters) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  using Env = Mailbox<int>::Envelope;
  mb.fill(0, 1, {Env{7, 1, 100}, Env{8, 2, 101}});
  ASSERT_EQ(mb.slot(0, 1).size(), 2u);
  EXPECT_EQ(mb.slot(0, 1)[0].from, 1);
  EXPECT_EQ(mb.slot(0, 1)[1].msg, 101);
  // fill() feeds the same accounting post() does: counts and wire bits.
  const auto& counts = mb.slot_counts();
  EXPECT_EQ(counts[0 * 2 + 1], 2);
  EXPECT_EQ(mb.slot_bits()[0 * 2 + 1], 2 * 32);
}

TEST(Mailbox, DoubleFillOfOneSlotThrows) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  using Env = Mailbox<int>::Envelope;
  mb.fill(1, 0, {Env{0, 9, 5}});
  EXPECT_THROW(mb.fill(1, 0, {Env{1, 9, 6}}), ContractViolation);
  // clear() rearms the guard — the next round may fill again.
  mb.clear();
  EXPECT_NO_THROW(mb.fill(1, 0, {Env{0, 9, 7}}));
}

TEST(Mailbox, FillOverLocallyPostedEnvelopesThrows) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  using Env = Mailbox<int>::Envelope;
  mb.post(0, /*from=*/1, /*to=*/7, 42);  // slot (0, 1) now has local content
  EXPECT_THROW(mb.fill(0, 1, {Env{7, 1, 42}}), ContractViolation);
}

TEST(Mailbox, ClearEmptiesSlotsAndZeroesTallies) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/7, 42);
  mb.post(0, /*from=*/2, /*to=*/8, 43);
  EXPECT_EQ(mb.slot_counts()[0 * 2 + 1], 2);
  EXPECT_EQ(mb.slot_bits()[0 * 2 + 1], 2 * 32);
  mb.clear();
  EXPECT_TRUE(mb.slot(0, 1).empty());
  EXPECT_EQ(mb.slot_counts()[0 * 2 + 1], 0);
  EXPECT_EQ(mb.slot_bits()[0 * 2 + 1], 0);
}

// fill() checks every envelope's addressing against the slot it fills: a
// peer that ships an envelope whose `to` another shard owns, or whose
// `from` is not the source shard's, would otherwise hand receive() a
// foreign sender id. The slot is named in the error and left unfilled.
TEST(Mailbox, FillRejectsMisaddressedEnvelopes) {
  // Renumbered partition over 6 vertices, 2 shards: shard 0 owns {1, 3, 5},
  // shard 1 owns {0, 2, 4}.
  const auto to_old = std::make_shared<const std::vector<int>>(
      std::vector<int>{1, 3, 5, 0, 2, 4});
  auto to_new_vec = std::vector<int>(6);
  for (int p = 0; p < 6; ++p) to_new_vec[(*to_old)[p]] = p;
  const auto to_new =
      std::make_shared<const std::vector<int>>(std::move(to_new_vec));
  const VertexPartition part = VertexPartition::renumbered(2, to_new, to_old);
  ASSERT_EQ(part.shard_of(1), 0);
  ASSERT_EQ(part.shard_of(0), 1);
  using Env = Mailbox<int>::Envelope;
  const auto fill_error = [&](std::vector<Env> slot) -> std::string {
    Mailbox<int> mb(&part);
    try {
      mb.fill(0, 1, std::move(slot));
    } catch (const WireError& e) {
      // The rejected slot is not installed, and nothing was tallied.
      EXPECT_TRUE(mb.slot(0, 1).empty());
      EXPECT_EQ(mb.slot_counts()[0 * 2 + 1], 0);
      return e.what();
    }
    return "";
  };
  // Well addressed: 3 (shard 0) -> 2 (shard 1).
  EXPECT_EQ(fill_error({Env{2, 3, 7}}), "");
  // `to` owned by the source shard, not the destination.
  EXPECT_NE(fill_error({Env{2, 3, 7}, Env{5, 3, 8}}).find("slot (0, 1)"),
            std::string::npos);
  // In-range but foreign `from` (4 is shard 1's) — the Luby tie-break
  // would read it as a real sender.
  EXPECT_NE(fill_error({Env{0, 4, 9}}).find("slot (0, 1)"), std::string::npos);
  // Out-of-range ids.
  EXPECT_NE(fill_error({Env{6, 3, 1}}), "");
  EXPECT_NE(fill_error({Env{2, -1, 1}}), "");
}

// --- the owner-routed encode surface ----------------------------------------

TEST(Mailbox, EncodeOwnedRowLeavesLocalSlotUntouched) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/2, 40);  // slot (0, 0): stays local
  mb.post(0, /*from=*/1, /*to=*/7, 41);  // slot (0, 1): crosses
  mb.post(0, /*from=*/3, /*to=*/8, 42);  // slot (0, 1), after the first
  auto row = mb.encode_owned_row(0);
  ASSERT_EQ(row.size(), 2u);
  // The local slot is never encoded — rank-local envelopes skip the codec
  // entirely — and its envelopes are still sitting in the mailbox.
  EXPECT_TRUE(row[0].empty());
  ASSERT_EQ(mb.slot(0, 0).size(), 1u);
  EXPECT_EQ(mb.slot(0, 0)[0].msg, 40);
  // The cross slot round-trips bit-exactly, post order preserved.
  const auto decoded = decode_slot<int, Mailbox<int>::Envelope>(row[1]);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].from, 1);
  EXPECT_EQ(decoded[0].to, 7);
  EXPECT_EQ(decoded[0].msg, 41);
  EXPECT_EQ(decoded[1].from, 3);
  EXPECT_EQ(decoded[1].msg, 42);
}

TEST(Mailbox, DoubleOwnedExchangeThrows) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/7, 1);
  EXPECT_NO_THROW(mb.encode_owned_row(0));
  // A second owner-routed exchange in the same round means two collectives
  // raced one mailbox — fail loudly.
  EXPECT_THROW(mb.encode_owned_row(0), ContractViolation);
  // clear() re-arms the guard for the next round.
  mb.clear();
  EXPECT_NO_THROW(mb.encode_owned_row(0));
}

// --- the inbox-order contract ------------------------------------------------

// Every node sends two messages to each neighbor per round — a pass of even
// payloads to all neighbors, then a pass of odd ones — so each (sender,
// receiver) pair is a tie that must keep emission order. receive() records
// its inbox verbatim, so a node's record is the exact sequence it was
// handed, and the id it was called with, which must be the id whose state
// it was handed.
struct OrderState {
  std::vector<std::pair<int, int>> heard;
  int received_as = -1;
};

template <typename Engine>
void run_order_rounds(Engine& engine, const Graph& g) {
  for (int round = 0; round < 2; ++round) {
    engine.round(
        [&g, round](int v, const OrderState&, typename Engine::Outbox& out) {
          for (int u : g.neighbors(v)) out.push_back({u, 4 * v + 2 * round});
          for (int u : g.neighbors(v)) {
            out.push_back({u, 4 * v + 2 * round + 1});
          }
        },
        [](int v, OrderState& s, typename Engine::Inbox inbox) {
          s.heard.insert(s.heard.end(), inbox.begin(), inbox.end());
          s.received_as = v;
        });
  }
}

// `world` SocketTransport ranks over a full socketpair mesh, one runtime
// each over `part`.
std::vector<std::unique_ptr<ShardRuntime>> socket_mesh(
    const Graph& g, const VertexPartition& part) {
  const int world = part.num_shards();
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
        g, part, nullptr,
        std::make_unique<SocketTransport>(
            r, world, std::move(fds[static_cast<std::size_t>(r)]))));
  }
  return runtimes;
}

TEST(ShardedEngine, InboxOrderContractOnEveryPath) {
  Rng grng(17);
  const Graph g = random_regular(1200, 5, grng);
  const int n = g.num_vertices();

  // The reference: SyncEngine's per-vertex vectors and stable sort.
  RoundLedger ref_ledger;
  SyncEngine<OrderState, int> ref(g, ref_ledger, "order");
  run_order_rounds(ref, g);
  for (int v = 0; v < n; ++v) {
    const auto& heard = ref.state(v).heard;
    ASSERT_EQ(heard.size(), 4 * g.neighbors(v).size()) << "node " << v;
    // Per round: ascending senders, each sender's even payload before its
    // odd one.
    for (std::size_t r = 0; r < 2; ++r) {
      const std::size_t lo = r * heard.size() / 2;
      for (std::size_t i = lo + 1; i < lo + heard.size() / 2; ++i) {
        const auto& [a_from, a_msg] = heard[i - 1];
        const auto& [b_from, b_msg] = heard[i];
        EXPECT_TRUE(a_from < b_from || (a_from == b_from && a_msg < b_msg))
            << "node " << v << " position " << i;
      }
    }
  }

  const auto expect_matches = [&](const auto& engine, int v,
                                  const std::string& label) {
    EXPECT_EQ(engine.state(v).heard, ref.state(v).heard)
        << label << ", node " << v;
    EXPECT_EQ(engine.state(v).received_as, v) << label;
  };
  const auto check_all = [&](const auto& engine, const std::string& label) {
    for (int v = 0; v < n; ++v) expect_matches(engine, v, label);
  };
  using Engine = ParallelSyncEngine<OrderState, int>;
  ThreadPool pool(8);

  {
    RoundLedger ledger;
    Engine serial(g, ledger, "order");
    run_order_rounds(serial, g);
    check_all(serial, "serial");
  }
  {
    RoundLedger ledger;
    Engine chunked(g, ledger, "order", &pool);
    run_order_rounds(chunked, g);
    check_all(chunked, "T=8 chunked");
  }

  for (int num_shards : {2, 3, 4}) {
    for (PartitionStrategy strategy :
         {PartitionStrategy::kContiguous, PartitionStrategy::kCluster}) {
      const VertexPartition part = make_partition(g, num_shards, strategy);
      std::string shape = "S=";
      shape += std::to_string(num_shards);
      shape += ' ';
      shape += partition_strategy_name(strategy);
      if (strategy == PartitionStrategy::kCluster) {
        // The premise: the shard-major merge really leaves some inbox out
        // of sender order, so the stable-sort fallback runs.
        bool out_of_order = false;
        for (int v = 0; v < n && !out_of_order; ++v) {
          int prev_shard = -1;
          for (int u : g.neighbors(v)) {
            if (part.shard_of(u) < prev_shard) out_of_order = true;
            prev_shard = std::max(prev_shard, part.shard_of(u));
          }
        }
        EXPECT_TRUE(out_of_order) << shape;
      }
      for (ThreadPool* pool_ptr : {static_cast<ThreadPool*>(nullptr), &pool}) {
        ShardRuntime runtime(g, part, pool_ptr);
        RoundLedger ledger;
        Engine sharded(g, ledger, "order", pool_ptr, &runtime);
        run_order_rounds(sharded, g);
        check_all(sharded, shape + " in-process" +
                               (pool_ptr == nullptr ? " T=1" : " T=8"));
      }

      // Socket ranks (owner-computed): each rank checks the vertices it owns.
      auto runtimes = socket_mesh(g, part);
      ASSERT_EQ(static_cast<int>(runtimes.size()), num_shards);
      std::vector<std::exception_ptr> errors(
          static_cast<std::size_t>(num_shards));
      std::vector<std::thread> threads;
      for (int r = 0; r < num_shards; ++r) {
        threads.emplace_back([&, r] {
          try {
            RoundLedger ledger;
            Engine rank(g, ledger, "order", nullptr,
                        runtimes[static_cast<std::size_t>(r)].get());
            run_order_rounds(rank, g);
            EXPECT_TRUE(rank.owner_local_state());
            const GraphView& view = runtimes[static_cast<std::size_t>(r)]->view(r);
            for (int i = 0; i < view.num_owned(); ++i) {
              expect_matches(rank, view.owned_vertex(i),
                             shape + " socket rank " + std::to_string(r));
            }
          } catch (...) {
            errors[static_cast<std::size_t>(r)] = std::current_exception();
          }
        });
      }
      for (auto& t : threads) t.join();
      for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
  }
}

}  // namespace
}  // namespace deltacol
