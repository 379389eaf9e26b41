// E17 — wire volume of the socket backend (net/wire_codec.h +
// net/socket_transport.h).
//
// One series, one claim: the physical bytes a 2-rank loopback cluster moves
// for Luby's MIS decompose exactly into the MessageSize-priced payload plus
// a fixed, enumerable framing overhead — nothing hidden, nothing lost.
//
//  * E17_WireVolume — two ranks over a socketpair, each running the
//    message-passing engine over its own SocketTransport. Counters:
//      - logical_bytes:  ShardRuntime total_bits / 8 (the CONGEST price);
//      - wire_bytes:     physical frame bytes both ranks sent (transport
//                        counters — length prefixes included);
//      - ratio:          wire / logical, the cost of addressing + framing.
//        Only cross-shard envelopes ship (owner routing): each costs 9
//        payload bytes + 8 addressing bytes on the wire, and each rank's
//        local envelopes cost nothing, so the ratio sits near 17/8.125 ×
//        the cross-edge fraction — 1.07–1.08 at S = 2 on these random
//        8-regular graphs, where about half the edges cross;
//      - overhead_ok:    1 iff wire_bytes equals the closed-form
//                        prediction from the runtime's counters — per
//                        engine round one owned frame (64 fixed bytes at
//                        S = 2) + 17 per outgoing cross envelope, per Luby
//                        iteration one allreduce_sum frame (24 bytes), and
//                        one gather_colors frame (20 + 4 per owned vertex)
//                        at the end — i.e. the framing overhead is EXACTLY
//        the documented constants (kFramePrefixBytes, the owned-frame
//        header, kWireSlotPrefixBytes, kWireEnvelopeOverheadBytes, the
//        reduce and gather frames of net/socket_transport.cpp), re-derived
//        here from first principles;
//      - identical:      1 iff both ranks' MIS, ledgers and byte counters
//        equal the in-process S=2 golden run (the differential contract,
//        re-asserted on every row).
//
// Emission: wall-clock per row, BENCH_e17.json when DELTACOL_BENCH_JSON is
// set under the minibench harness (schema in bench/README.md), CSV via
// DELTACOL_CSV_DIR.
#include <sys/socket.h>

#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "mis/luby_sync.h"
#include "net/frame.h"
#include "net/socket_transport.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"

namespace deltacol::bench {
namespace {

constexpr int kDegree = 8;

const Graph& cached_regular(int n) {
  static std::map<int, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_regular(n, kDegree, 2025)).first;
  }
  return it->second;
}

struct RankResult {
  std::vector<bool> mis;
  std::int64_t ledger_total = 0;
  std::int64_t total_bits = 0;
  std::int64_t wire_sent = 0;
  std::int64_t sent_envelopes = 0;  // this rank's outgoing cross envelopes
  std::int64_t rounds = 0;
  std::int64_t owned = 0;  // vertices this rank's shard owns
};

void E17_WireVolume(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph& g = cached_regular(n);
  constexpr int kWorld = 2;

  // Golden: the same run on the in-process transport at S=2.
  std::vector<bool> golden_mis;
  std::int64_t golden_ledger = 0, golden_bits = 0;
  {
    ShardRuntime rt(g, kWorld, nullptr);
    Rng rng(99);
    RoundLedger ledger;
    golden_mis = luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
    golden_ledger = ledger.total();
    golden_bits = rt.total_bits();
  }

  std::vector<RankResult> ranks(kWorld);
  for (auto _ : state) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      state.counters["identical"] = 0;
      return;
    }
    std::vector<std::unique_ptr<ShardRuntime>> rts(kWorld);
    rts[0] = std::make_unique<ShardRuntime>(
        g, kWorld, nullptr,
        std::make_unique<SocketTransport>(0, kWorld,
                                          std::vector<int>{-1, sv[0]}));
    rts[1] = std::make_unique<ShardRuntime>(
        g, kWorld, nullptr,
        std::make_unique<SocketTransport>(1, kWorld,
                                          std::vector<int>{sv[1], -1}));
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        ShardRuntime& rt = *rts[static_cast<std::size_t>(r)];
        Rng rng(99);
        RoundLedger ledger;
        RankResult& out = ranks[static_cast<std::size_t>(r)];
        out.mis = luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
        out.ledger_total = ledger.total();
        out.total_bits = rt.total_bits();
        out.rounds = rt.rounds_recorded();
        auto& st = static_cast<SocketTransport&>(rt.transport());
        out.wire_sent = st.wire_bytes_sent();
        out.owned = rt.view(r).num_owned();
        out.sent_envelopes = 0;
        for (int d = 0; d < kWorld; ++d) {
          if (d != r) out.sent_envelopes += rt.slot_messages(r, d);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // Closed-form framing prediction per rank; every frame goes to each of
  // the (world-1) peers and pays the 4-byte frame length prefix.
  //  * Owned frame, one per engine round: 5 u32 header fields (tag, sender,
  //    seq, destination, world) + world × (u64 count + u64 bits) tally row
  //    + the u32 slot length + the slot's 4-byte envelope-count prefix.
  //    Variable bytes: 8 addressing + 9 Luby payload per cross envelope.
  //  * Reduce frame (allreduce_sum), one per Luby iteration = two engine
  //    rounds: 3 u32 (tag, sender, seq) + the u64 value.
  //  * Gather frame (gather_colors), once: 4 u32 (tag, sender, seq, count)
  //    + one u32 per owned vertex.
  constexpr std::int64_t kOwnedFrameFixed =
      kFramePrefixBytes + 5 * 4 + kWorld * 16 + 4 + kWireSlotPrefixBytes;
  constexpr std::int64_t kReduceFrame = kFramePrefixBytes + 3 * 4 + 8;
  constexpr std::int64_t kGatherFrameFixed = kFramePrefixBytes + 4 * 4;
  constexpr std::int64_t kLubyPayloadBytes = 9;  // ceil(1/8) + ceil(64/8)
  constexpr std::int64_t kPerEnvelope =
      kWireEnvelopeOverheadBytes + kLubyPayloadBytes;

  bool identical = true;
  bool overhead_ok = true;
  std::int64_t wire_total = 0;
  for (const RankResult& rr : ranks) {
    identical = identical && rr.mis == golden_mis &&
                rr.ledger_total == golden_ledger &&
                rr.total_bits == golden_bits;
    const std::int64_t predicted =
        (kWorld - 1) * (rr.rounds * kOwnedFrameFixed + rr.sent_envelopes *
                                                           kPerEnvelope) +
        (kWorld - 1) * (rr.rounds / 2) * kReduceFrame +
        (kWorld - 1) * (kGatherFrameFixed + 4 * rr.owned);
    overhead_ok = overhead_ok && rr.wire_sent == predicted;
    wire_total += rr.wire_sent;
  }
  const double logical_bytes = static_cast<double>(golden_bits) / 8.0;

  state.counters["rounds"] = static_cast<double>(ranks[0].rounds);
  state.counters["logical_bytes"] = logical_bytes;
  state.counters["wire_bytes"] = static_cast<double>(wire_total);
  state.counters["ratio"] =
      logical_bytes > 0 ? static_cast<double>(wire_total) / logical_bytes : 0.0;
  state.counters["overhead_ok"] = overhead_ok ? 1.0 : 0.0;
  state.counters["identical"] = identical ? 1.0 : 0.0;

  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit("e17_wire_volume", row);
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E17_WireVolume)
    ->ArgsProduct({{20000, 50000}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);
