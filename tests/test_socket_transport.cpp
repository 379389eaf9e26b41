// The distributed socket backend (net/): framing over real fds including
// torn-frame / short-read / oversize injection, NetConfig rendezvous
// parsing, the SocketTransport all-gather and owner-routed primitives,
// per-rank slice loading + halo exchange over the wire, and the headline
// differential: Luby's MIS on the message-passing engine over a 2-rank
// socket cluster is bit-identical — MIS, ledgers, and byte counters — to
// the InProcessTransport at S=2, for every zoo workload under LOCAL and
// CONGEST(64).
//
// The two ranks live in one process: each owns a SocketTransport built over
// pre-connected socketpair fds and runs on its own thread, so the suite is
// hermetic (no ports, no processes). The multi-process rendezvous path is
// covered by scripts/run_local_cluster.sh and the tcp-2rank CI leg.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "net/frame.h"
#include "net/rank_loader.h"
#include "net/socket_transport.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

// --- harness ---------------------------------------------------------------

struct FdPair {
  int a = -1;
  int b = -1;
  FdPair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    a = sv[0];
    b = sv[1];
  }
  // Transports take ownership; only close what was never handed off.
  void close_remaining() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
    a = b = -1;
  }
};

// Two pre-connected rank transports (world = 2) over a socketpair.
std::pair<std::unique_ptr<SocketTransport>, std::unique_ptr<SocketTransport>>
loopback_pair() {
  FdPair fds;
  auto t0 = std::make_unique<SocketTransport>(0, 2, std::vector<int>{-1, fds.a});
  auto t1 = std::make_unique<SocketTransport>(1, 2, std::vector<int>{fds.b, -1});
  fds.a = fds.b = -1;
  return {std::move(t0), std::move(t1)};
}

// A full mesh of `world` pre-connected rank transports over socketpairs.
std::vector<std::unique_ptr<SocketTransport>> socket_mesh(int world) {
  std::vector<std::vector<int>> fds(static_cast<std::size_t>(world),
                                    std::vector<int>(world, -1));
  for (int a = 0; a < world; ++a) {
    for (int b = a + 1; b < world; ++b) {
      const FdPair p;
      fds[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = p.a;
      fds[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = p.b;
    }
  }
  std::vector<std::unique_ptr<SocketTransport>> mesh;
  for (int r = 0; r < world; ++r) {
    mesh.push_back(std::make_unique<SocketTransport>(
        r, world, std::move(fds[static_cast<std::size_t>(r)])));
  }
  return mesh;
}

// Runs rank bodies concurrently (each body gets its rank id) and rethrows
// the first failure on the test thread.
template <typename Body>
void run_ranks(int world, Body body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
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

// --- framing over real fds -------------------------------------------------

TEST(Frame, RoundTripsOverSocketpair) {
  FdPair fds;
  const WireBuf msg = {1, 2, 3, 250, 251};
  write_frame(fds.a, msg);
  write_frame(fds.a, {});  // empty frames are legal
  EXPECT_EQ(read_frame(fds.b), msg);
  EXPECT_EQ(read_frame(fds.b), WireBuf{});
  fds.close_remaining();
}

TEST(Frame, CleanEofAtBoundaryIsNotAnError) {
  FdPair fds;
  write_frame(fds.a, {9, 9});
  ::close(fds.a);
  fds.a = -1;
  WireBuf out;
  EXPECT_TRUE(try_read_frame(fds.b, out));
  EXPECT_EQ(out, (WireBuf{9, 9}));
  EXPECT_FALSE(try_read_frame(fds.b, out));  // EOF exactly between frames
  EXPECT_THROW(read_frame(fds.b), WireError);
  fds.close_remaining();
}

TEST(Frame, TornPrefixThrows) {
  FdPair fds;
  const std::uint8_t half_prefix[2] = {4, 0};  // 2 of the 4 length bytes
  ASSERT_EQ(::send(fds.a, half_prefix, 2, 0), 2);
  ::close(fds.a);
  fds.a = -1;
  WireBuf out;
  EXPECT_THROW(try_read_frame(fds.b, out), WireError);
  fds.close_remaining();
}

TEST(Frame, ShortReadInsidePayloadThrows) {
  FdPair fds;
  // Prefix promises 10 payload bytes; deliver 3 and hang up.
  const std::uint8_t bytes[] = {10, 0, 0, 0, 7, 7, 7};
  ASSERT_EQ(::send(fds.a, bytes, sizeof(bytes), 0),
            static_cast<ssize_t>(sizeof(bytes)));
  ::close(fds.a);
  fds.a = -1;
  EXPECT_THROW(read_frame(fds.b), WireError);
  fds.close_remaining();
}

TEST(Frame, OversizedLengthPrefixThrows) {
  FdPair fds;
  const std::uint8_t bytes[] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB frame
  ASSERT_EQ(::send(fds.a, bytes, 4, 0), 4);
  EXPECT_THROW(read_frame(fds.b), WireError);
  fds.close_remaining();
}

// A length prefix is the peer's claim, not a measurement: a rank that reads
// one claiming 256 MiB and then hits EOF fails as a torn frame without
// having allocated (and zero-filled) the claimed payload first.
TEST(Frame, LengthPrefixAloneDoesNotAllocateThePayload) {
  constexpr std::uint32_t kClaimed = 256u << 20;
  constexpr long kMaxGrowthKiB = 64 << 10;
  FdPair fds;
  const std::uint8_t prefix[4] = {static_cast<std::uint8_t>(kClaimed),
                                  static_cast<std::uint8_t>(kClaimed >> 8),
                                  static_cast<std::uint8_t>(kClaimed >> 16),
                                  static_cast<std::uint8_t>(kClaimed >> 24)};
  ASSERT_EQ(::send(fds.a, prefix, 4, 0), 4);
  ::close(fds.a);
  fds.a = -1;
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  WireBuf out;
  try {
    (void)try_read_frame(fds.b, out);
    ADD_FAILURE() << "a 4-byte stream read as a whole frame";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
  }
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, kMaxGrowthKiB)
      << "peak RSS grew by " << after.ru_maxrss - before.ru_maxrss << " KiB";
  fds.close_remaining();
}

// A torn exchange frame surfaces as WireError from the transport itself.
TEST(SocketTransport, PeerHangupMidExchangeThrows) {
  FdPair fds;
  auto t0 = std::make_unique<SocketTransport>(0, 2, std::vector<int>{-1, fds.a});
  const int raw = fds.b;
  fds.a = -1;
  std::thread saboteur([&] {
    // Send a torn frame: a length prefix promising 100 bytes, then 3 bytes
    // and a hangup. Rank 0's own (tiny) outbound frame fits in the kernel
    // buffer, so its writer completes without anyone draining.
    const std::uint8_t bytes[] = {100, 0, 0, 0, 1, 2, 3};
    (void)::send(raw, bytes, sizeof(bytes), 0);
    ::close(raw);
  });
  std::vector<WireBuf> row(2);
  EXPECT_THROW(t0->all_gather_rows(std::move(row)), WireError);
  saboteur.join();
  fds.b = -1;
  fds.close_remaining();
}

// --- NetConfig -------------------------------------------------------------

// Restores (unsets) an environment variable on scope exit, so a test that
// fails mid-way cannot leak its value into later tests.
struct EnvGuard {
  std::string name;
  EnvGuard(const std::string& n, const std::string& value) : name(n) {
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

TEST(NetConfig, ParsesEndpointLists) {
  const auto eps = NetConfig::parse_endpoints("127.0.0.1:4000,example.com:81");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].first, "127.0.0.1");
  EXPECT_EQ(eps[0].second, 4000);
  EXPECT_EQ(eps[1].first, "example.com");
  EXPECT_EQ(eps[1].second, 81);
  EXPECT_THROW(NetConfig::parse_endpoints("nohost"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host:"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints(":80"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host:notaport"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host:99999"), ContractViolation);
  // The port is the whole token after the last colon, in [1, 65535].
  for (const char* bad : {"127.0.0.1:7000x", "host:+80", "host: 80", "host:0",
                          "host:65536"}) {
    try {
      NetConfig::parse_endpoints(std::string("a:1,") + bad);
      ADD_FAILURE() << bad << " accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(NetConfig, LocalhostEndpointsAndValidation) {
  const auto eps = NetConfig::localhost_endpoints(3, 5000);
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[2], (std::pair<std::string, int>{"127.0.0.1", 5002}));
  NetConfig cfg;
  cfg.rank = 1;
  cfg.world = 3;
  cfg.endpoints = eps;
  EXPECT_NO_THROW(cfg.validate());
  cfg.rank = 3;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.rank = 1;
  cfg.endpoints.pop_back();
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(NetConfig, FromEnvRoundTrip) {
  ASSERT_EQ(::setenv("DELTACOL_RANK", "1", 1), 0);
  ASSERT_EQ(::setenv("DELTACOL_WORLD", "2", 1), 0);
  ASSERT_EQ(::setenv("DELTACOL_ENDPOINTS", "127.0.0.1:7000,127.0.0.1:7001", 1),
            0);
  auto cfg = NetConfig::from_env();
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->rank, 1);
  EXPECT_EQ(cfg->world, 2);
  ASSERT_EQ(cfg->endpoints.size(), 2u);
  EXPECT_EQ(cfg->endpoints[1].second, 7001);

  // Port-base shorthand.
  ASSERT_EQ(::unsetenv("DELTACOL_ENDPOINTS"), 0);
  ASSERT_EQ(::setenv("DELTACOL_PORT_BASE", "6100", 1), 0);
  cfg = NetConfig::from_env();
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->endpoints[0], (std::pair<std::string, int>{"127.0.0.1", 6100}));

  // Half-set environment is an error, absent environment is nullopt.
  ASSERT_EQ(::unsetenv("DELTACOL_WORLD"), 0);
  EXPECT_THROW(NetConfig::from_env(), ContractViolation);
  ASSERT_EQ(::unsetenv("DELTACOL_RANK"), 0);
  ASSERT_EQ(::unsetenv("DELTACOL_PORT_BASE"), 0);
  EXPECT_FALSE(NetConfig::from_env().has_value());
}

// The ContractViolation message of NetConfig::from_env under the given
// rank/world/port-base environment, or "" if it parses.
std::string from_env_error(const char* rank, const char* world,
                           const char* port_base) {
  const EnvGuard r("DELTACOL_RANK", rank);
  const EnvGuard w("DELTACOL_WORLD", world);
  const EnvGuard b("DELTACOL_PORT_BASE", port_base);
  try {
    NetConfig::from_env();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

// Every numeric variable is one whole base-10 token in range: trailing
// garbage, empty values, signs, whitespace, out-of-range ports and a port
// base whose last rank would pass 65535 all throw, naming the variable
// instead of running on a misread value.
TEST(NetConfig, FromEnvRejectsMalformedValues) {
  struct Case {
    const char* rank;
    const char* world;
    const char* port_base;
    const char* names;
  };
  const Case cases[] = {
      {"1x", "2", "4700", "DELTACOL_RANK must be"},
      {"", "2", "4700", "DELTACOL_RANK must be"},
      {"-1", "2", "4700", "DELTACOL_RANK must be"},
      {"2", "2", "4700", "DELTACOL_RANK must be"},
      {"0", "2x", "4700", "DELTACOL_WORLD must be"},
      {"0", "", "4700", "DELTACOL_WORLD must be"},
      {"0", " 2", "4700", "DELTACOL_WORLD must be"},
      {"0", "0", "4700", "DELTACOL_WORLD must be"},
      {"0", "99999999999", "4700", "DELTACOL_WORLD must be"},
      {"1", "2", "47a", "DELTACOL_PORT_BASE"},
      {"1", "2", "", "DELTACOL_PORT_BASE"},
      {"1", "2", "+4700", "DELTACOL_PORT_BASE"},
      {"1", "2", "0", "DELTACOL_PORT_BASE"},
      {"1", "2", "65536", "DELTACOL_PORT_BASE"},
      {"1", "2", "99999999999", "DELTACOL_PORT_BASE"},
      {"1", "2", "65535", "DELTACOL_PORT_BASE"},  // rank 1 would need 65536
      {"1", "3", "65534", "DELTACOL_PORT_BASE"},
  };
  for (const Case& c : cases) {
    const std::string label = std::string("rank='") + c.rank + "' world='" +
                              c.world + "' port_base='" + c.port_base + "'";
    const std::string msg = from_env_error(c.rank, c.world, c.port_base);
    EXPECT_NE(msg.find(c.names), std::string::npos) << label << ": " << msg;
  }
  // The last port that fits is accepted.
  {
    const EnvGuard r("DELTACOL_RANK", "1");
    const EnvGuard w("DELTACOL_WORLD", "2");
    const EnvGuard b("DELTACOL_PORT_BASE", "65534");
    const auto cfg = NetConfig::from_env();
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->endpoints[1].second, 65535);
  }

  // DELTACOL_NET_TIMEOUT_MS is read when a transport is built; a one-rank
  // transport owns no sockets, so the throw leaks nothing.
  for (const char* bad : {"300x", "", "3e2", "99999999999"}) {
    const EnvGuard t("DELTACOL_NET_TIMEOUT_MS", bad);
    try {
      SocketTransport lonely(0, 1, std::vector<int>{-1});
      ADD_FAILURE() << "DELTACOL_NET_TIMEOUT_MS='" << bad << "' accepted";
    } catch (const ContractViolation& ex) {
      EXPECT_NE(std::string(ex.what()).find("DELTACOL_NET_TIMEOUT_MS"),
                std::string::npos)
          << ex.what();
    }
  }
  for (const char* good : {"300", "0", "-1"}) {
    const EnvGuard t("DELTACOL_NET_TIMEOUT_MS", good);
    EXPECT_NO_THROW(SocketTransport(0, 1, std::vector<int>{-1})) << good;
  }
}

// --- the all-gather primitive ----------------------------------------------

TEST(SocketTransport, AllGatherRowsExchangesEverySlot) {
  auto [t0, t1] = loopback_pair();
  EXPECT_EQ(t0->local_shard(), 0);
  EXPECT_EQ(t1->local_shard(), 1);
  // run_shards on a socket transport is the local rank's body only.
  std::vector<int> hits;
  t1->run_shards([&](int s) { hits.push_back(s); });
  EXPECT_EQ(hits, std::vector<int>{1});

  std::vector<std::vector<std::vector<std::uint8_t>>> got0, got1;
  run_ranks(2, [&](int r) {
    std::vector<WireBuf> row(2);
    row[0] = {std::uint8_t(10 * r + 0)};
    row[1] = {std::uint8_t(10 * r + 1), std::uint8_t(10 * r + 2)};
    auto rows = (r == 0 ? *t0 : *t1).all_gather_rows(std::move(row));
    (r == 0 ? got0 : got1) = std::move(rows);
  });
  // Both ranks see the identical full matrix rows[s][d].
  ASSERT_EQ(got0.size(), 2u);
  EXPECT_EQ(got0, got1);
  EXPECT_EQ(got0[0][0], (WireBuf{0}));
  EXPECT_EQ(got0[0][1], (WireBuf{1, 2}));
  EXPECT_EQ(got0[1][0], (WireBuf{10}));
  EXPECT_EQ(got0[1][1], (WireBuf{11, 12}));
  // Wire accounting: each rank sent one frame and received one.
  EXPECT_EQ(t0->frames_sent(), 1);
  EXPECT_GT(t0->wire_bytes_sent(), 0);
  EXPECT_EQ(t0->wire_bytes_sent(), t1->wire_bytes_received());
  EXPECT_EQ(t1->wire_bytes_sent(), t0->wire_bytes_received());

  // Barriers are empty all-gathers; a second round proves the seq advances.
  run_ranks(2, [&](int r) { (r == 0 ? *t0 : *t1).barrier(); });
  EXPECT_EQ(t0->frames_sent(), 2);
}

// --- per-rank loading + halo exchange --------------------------------------

TEST(RankLoader, StreamedSliceMatchesInMemorySlice) {
  const std::string path = ::testing::TempDir() + "deltacol_slice_zoo.el";
  for (const auto& w : generator_zoo()) {
    save_edge_list(path, w.graph);
    const VertexPartition part =
        VertexPartition::contiguous(w.graph.num_vertices(), 2);
    for (int r = 0; r < 2; ++r) {
      const CsrSlice streamed = load_edge_list_slice(path, 2, r);
      const CsrSlice direct = slice_of(w.graph, part, r);
      EXPECT_EQ(streamed.n_global, direct.n_global) << w.name;
      EXPECT_EQ(streamed.lo, direct.lo) << w.name;
      EXPECT_EQ(streamed.hi, direct.hi) << w.name;
      EXPECT_EQ(streamed.offsets, direct.offsets) << w.name;
      EXPECT_EQ(streamed.targets, direct.targets) << w.name;
      // And the slice-derived halo is exactly the GraphView ghost table.
      const GraphView view(w.graph, part, r);
      const std::vector<int> halo = halo_of(streamed);
      EXPECT_TRUE(std::equal(halo.begin(), halo.end(), view.halo().begin(),
                             view.halo().end()))
          << w.name;
    }
  }
}

TEST(RankLoader, StreamedSliceRejectsTrailingTokens) {
  // The per-rank loader shares read_edge_list's line grammar: a weighted
  // edge line or a third header field is malformed input, on every rank.
  for (const char* text : {"4 3\n0 1 junk\n1 2\n2 3\n",
                           "4 3\n0 1\n1 2 5\n2 3\n",
                           "4 3 99\n0 1\n1 2\n2 3\n"}) {
    for (int r = 0; r < 2; ++r) {
      std::istringstream in(text);
      EXPECT_THROW(load_edge_list_slice(in, 2, r), ContractViolation)
          << text << " rank " << r;
    }
  }
  std::istringstream crlf("3 2\r\n0 1\r\n1 2\r\n");
  EXPECT_EQ(load_edge_list_slice(crlf, 1, 0).targets,
            (std::vector<int>{1, 0, 2, 1}));
  // Blank CRLF lines (a lone '\r') and whitespace-only lines are skipped.
  for (int r = 0; r < 2; ++r) {
    std::istringstream blanks("3 2\r\n\r\n0 1\r\n \r\n1 2\r\n\r\n");
    std::istringstream plain("3 2\n0 1\n1 2\n");
    EXPECT_EQ(load_edge_list_slice(blanks, 2, r).targets,
              load_edge_list_slice(plain, 2, r).targets)
        << "rank " << r;
  }
}

TEST(RankLoader, HaloAdjacencyArrivesIntactOverTheWire) {
  for (const auto& w : generator_zoo()) {
    auto [t0, t1] = loopback_pair();
    const VertexPartition part =
        VertexPartition::contiguous(w.graph.num_vertices(), 2);
    run_ranks(2, [&](int r) {
      const CsrSlice mine = slice_of(w.graph, part, r);
      const auto fetched =
          exchange_halo_adjacency(r == 0 ? *t0 : *t1, mine);
      const std::vector<int> halo = halo_of(mine);
      if (fetched.size() != halo.size()) {
        throw std::runtime_error("halo size mismatch on " + w.name);
      }
      for (std::size_t i = 0; i < fetched.size(); ++i) {
        const auto expect = w.graph.neighbors(fetched[i].vertex);
        if (fetched[i].vertex != halo[i] ||
            !std::equal(expect.begin(), expect.end(),
                        fetched[i].neighbors.begin(),
                        fetched[i].neighbors.end())) {
          throw std::runtime_error("halo adjacency mismatch on " + w.name);
        }
      }
    });
  }
}

// The halo exchange and barrier() ride all_gather_rows, but they are not
// engine-round payload: cross_payload_bytes must stay 0 after both, while
// the wire counters do record their frames.
TEST(RankLoader, HaloExchangeAndBarrierAreNotCrossPayload) {
  const Graph g = generator_zoo_graph("regular-500-6");
  auto [t0, t1] = loopback_pair();
  const VertexPartition part = VertexPartition::contiguous(g.num_vertices(), 2);
  run_ranks(2, [&](int r) {
    SocketTransport& t = r == 0 ? *t0 : *t1;
    exchange_halo_adjacency(t, slice_of(g, part, r));
    t.barrier();
  });
  for (SocketTransport* t : {t0.get(), t1.get()}) {
    EXPECT_GT(t->wire_bytes_sent(), 0);
    EXPECT_EQ(t->cross_payload_bytes(), 0) << "rank " << t->rank();
  }
}

// --- the owner-routed primitive --------------------------------------------

TEST(SocketTransport, ExchangeOwnedMovesOnlyOffDiagonalSlots) {
  auto [t0, t1] = loopback_pair();
  std::vector<Transport::OwnedExchange> got(2);
  run_ranks(2, [&](int r) {
    // Rank r addresses one slot to the other rank; the local slot is empty
    // (the contract: it never crosses the wire).
    std::vector<WireBuf> to_peers(2);
    to_peers[1 - r] = {std::uint8_t(100 + r), std::uint8_t(200 + r)};
    std::vector<std::int64_t> counts = {10 * r + 1, 10 * r + 2};
    std::vector<std::int64_t> bits = {100 * r + 1, 100 * r + 2};
    got[static_cast<std::size_t>(r)] =
        (r == 0 ? *t0 : *t1)
            .exchange_owned(std::move(to_peers), std::move(counts),
                            std::move(bits));
  });
  for (int r = 0; r < 2; ++r) {
    const auto& ex = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(ex.slots.size(), 2u);
    // The local slot stays empty; the peer's slot carries its payload.
    EXPECT_TRUE(ex.slots[static_cast<std::size_t>(r)].empty());
    const int peer = 1 - r;
    const auto slot = ex.slots[static_cast<std::size_t>(peer)];
    EXPECT_EQ(WireBuf(slot.begin(), slot.end()),
              (WireBuf{std::uint8_t(100 + peer), std::uint8_t(200 + peer)}));
    // The caller's slot buffers come back for reuse, contents intact.
    ASSERT_EQ(ex.sent.size(), 2u);
    EXPECT_EQ(ex.sent[static_cast<std::size_t>(peer)],
              (WireBuf{std::uint8_t(100 + r), std::uint8_t(200 + r)}));
    // The piggybacked tally rows reassemble the full S x S matrices
    // identically on both ranks.
    EXPECT_EQ(ex.slot_counts, (std::vector<std::int64_t>{1, 2, 11, 12}));
    EXPECT_EQ(ex.slot_bits, (std::vector<std::int64_t>{1, 2, 101, 102}));
  }
  // cross_payload_bytes is MEASURED here: exactly the 2 slot bytes each rank
  // framed to its one peer.
  EXPECT_EQ(t0->cross_payload_bytes(), 2);
  EXPECT_EQ(t1->cross_payload_bytes(), 2);

  // A non-empty local slot is a contract violation, caught before any I/O.
  std::vector<WireBuf> bad(2);
  bad[0] = {1};
  EXPECT_THROW(t0->exchange_owned(std::move(bad), {0, 0}, {0, 0}),
               ContractViolation);
}

// --- the small collectives and their wire format --------------------------

// allreduce_sum / allreduce_max over 3 ranks give the same, exact result on
// every rank, including at the ends of the i64 range.
TEST(SocketTransport, AllreduceAgreesOnEveryRank) {
  constexpr int kWorld = 3;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct Case {
    std::array<std::int64_t, kWorld> in;  // rank r contributes in[r]
    std::int64_t sum;
    std::int64_t max;
  };
  const Case cases[] = {
      {{kMax - 10, -7, 3}, kMax - 14, kMax - 10},
      {{kMin + 6, -5, -1}, kMin, -1},
      {{kMin, 0, 0}, kMin, 0},
      {{kMax, kMin, 0}, -1, kMax},
      {{-1, -1, -1}, -3, -1},
      {{0, 0, 0}, 0, 0},
  };
  auto mesh = socket_mesh(kWorld);
  for (const Case& c : cases) {
    std::array<std::int64_t, kWorld> sums{};
    std::array<std::int64_t, kWorld> maxes{};
    run_ranks(kWorld, [&](int r) {
      SocketTransport& t = *mesh[static_cast<std::size_t>(r)];
      const std::int64_t mine = c.in[static_cast<std::size_t>(r)];
      sums[static_cast<std::size_t>(r)] = t.allreduce_sum(mine);
      maxes[static_cast<std::size_t>(r)] = t.allreduce_max(mine);
    });
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_EQ(sums[static_cast<std::size_t>(r)], c.sum) << "rank " << r;
      EXPECT_EQ(maxes[static_cast<std::size_t>(r)], c.max) << "rank " << r;
    }
  }
}

// gather_colors reassembles the whole array on every rank from the owned
// entries alone, under both partition strategies (the cluster partition's
// owned vertices are not a contiguous id range). -1 and the int extremes
// survive the u32 wire encoding.
TEST(SocketTransport, GatherColorsAgreesOnEveryRank) {
  constexpr int kWorld = 3;
  const Graph g = generator_zoo_graph("regular-500-6");
  const int n = g.num_vertices();
  std::vector<int> expect(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    expect[static_cast<std::size_t>(v)] = v % 7 == 0 ? -1 : 37 * v - 9000;
  }
  expect[1] = std::numeric_limits<int>::min();
  expect[2] = std::numeric_limits<int>::max();
  for (PartitionStrategy strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kCluster}) {
    const VertexPartition part = make_partition(g, kWorld, strategy);
    auto mesh = socket_mesh(kWorld);
    std::vector<std::vector<int>> got(kWorld);
    run_ranks(kWorld, [&](int r) {
      // Only the owned entries are right before the gather.
      std::vector<int> values(static_cast<std::size_t>(n), 123456);
      for (int i = 0; i < part.size(r); ++i) {
        const auto v = static_cast<std::size_t>(part.owned_vertex(r, i));
        values[v] = expect[v];
      }
      mesh[static_cast<std::size_t>(r)]->gather_colors(part, values);
      got[static_cast<std::size_t>(r)] = std::move(values);
    });
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], expect)
          << partition_strategy_name(strategy) << " rank " << r;
    }
  }
}

// The bytes and frames one call puts on the wire, in closed form (the 4-byte
// frame prefix included). Every collective sends exactly one frame to each
// peer; these pin the frame layouts against any change.
TEST(SocketTransport, CollectiveWireBytesMatchClosedForms) {
  constexpr int kWorld = 3;
  constexpr std::int64_t kPeers = kWorld - 1;
  const VertexPartition part = VertexPartition::contiguous(10, kWorld);
  auto mesh = socket_mesh(kWorld);
  struct Delta {
    std::int64_t sent = 0;
    std::int64_t received = 0;
    std::int64_t frames = 0;
    std::int64_t payload = 0;
  };
  // Runs `call(rank, transport)` on every rank; returns each rank's deltas.
  const auto measure = [&](const auto& call) {
    std::vector<Delta> d(kWorld);
    run_ranks(kWorld, [&](int r) {
      SocketTransport& t = *mesh[static_cast<std::size_t>(r)];
      Delta& out = d[static_cast<std::size_t>(r)];
      out = {-t.wire_bytes_sent(), -t.wire_bytes_received(), -t.frames_sent(),
             -t.cross_payload_bytes()};
      call(r, t);
      out.sent += t.wire_bytes_sent();
      out.received += t.wire_bytes_received();
      out.frames += t.frames_sent();
      out.payload += t.cross_payload_bytes();
    });
    return d;
  };
  // `per_peer(s)` is the size of the frame rank s sends to each peer.
  const auto expect_deltas = [&](const std::vector<Delta>& d,
                                 const auto& per_peer, const char* what) {
    std::int64_t all = 0;
    for (int s = 0; s < kWorld; ++s) all += per_peer(s);
    for (int r = 0; r < kWorld; ++r) {
      const Delta& x = d[static_cast<std::size_t>(r)];
      EXPECT_EQ(x.sent, kPeers * per_peer(r)) << what << " rank " << r;
      EXPECT_EQ(x.received, all - per_peer(r)) << what << " rank " << r;
      EXPECT_EQ(x.frames, kPeers) << what << " rank " << r;
    }
  };

  // reduce: tag, sender, seq, u64 value — 24 B per peer.
  const auto reduce = [](int) { return std::int64_t{24}; };
  expect_deltas(measure([](int r, SocketTransport& t) { t.allreduce_sum(r); }),
                reduce, "allreduce_sum");
  expect_deltas(measure([](int r, SocketTransport& t) { t.allreduce_max(r); }),
                reduce, "allreduce_max");

  // gather: tag, sender, seq, u32 count, count x u32 — 20 + 4*owned B.
  expect_deltas(measure([&](int, SocketTransport& t) {
                  std::vector<int> values(10, 0);
                  t.gather_colors(part, values);
                }),
                [&](int s) { return 20 + 4 * std::int64_t{part.size(s)}; },
                "gather_colors");

  // all-gather: sender, seq, slot count, per slot u32 length + bytes —
  // 16 + sum(4 + len) B. Rank r's slot d carries r + 2d bytes.
  const auto slot_len = [](int r, int d) { return r + 2 * d; };
  const auto gather_row_bytes = [&](int s) {
    std::int64_t b = 16;
    for (int d = 0; d < kWorld; ++d) b += 4 + slot_len(s, d);
    return b;
  };
  expect_deltas(measure([&](int r, SocketTransport& t) {
                  std::vector<WireBuf> row(kWorld);
                  for (int d = 0; d < kWorld; ++d) {
                    row[static_cast<std::size_t>(d)].assign(
                        static_cast<std::size_t>(slot_len(r, d)),
                        static_cast<std::uint8_t>(r));
                  }
                  t.all_gather_rows(std::move(row));
                }),
                gather_row_bytes, "all_gather_rows");
  // barrier: an all-gather of empty slots — 16 + 4*world B.
  expect_deltas(measure([](int, SocketTransport& t) { t.barrier(); }),
                [](int) { return std::int64_t{16 + 4 * kWorld}; }, "barrier");

  // owned: tag, sender, seq, dest, world, 2*world x u64 tallies, u32 slot
  // length + slot — 28 + 16*world + len B. Rank r's slot to d carries r + 2d
  // bytes, all of it cross payload.
  const auto d_owned = measure([&](int r, SocketTransport& t) {
    std::vector<WireBuf> to_peers(kWorld);
    for (int d = 0; d < kWorld; ++d) {
      if (d == r) continue;
      to_peers[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(slot_len(r, d)), 7);
    }
    t.exchange_owned(std::move(to_peers), std::vector<std::int64_t>(kWorld, 1),
                     std::vector<std::int64_t>(kWorld, 2));
  });
  for (int r = 0; r < kWorld; ++r) {
    std::int64_t sent = 0;
    std::int64_t received = 0;
    std::int64_t payload = 0;
    for (int p = 0; p < kWorld; ++p) {
      if (p == r) continue;
      sent += 28 + 16 * kWorld + slot_len(r, p);
      received += 28 + 16 * kWorld + slot_len(p, r);
      payload += slot_len(r, p);
    }
    const Delta& x = d_owned[static_cast<std::size_t>(r)];
    EXPECT_EQ(x.sent, sent) << "exchange_owned rank " << r;
    EXPECT_EQ(x.received, received) << "exchange_owned rank " << r;
    EXPECT_EQ(x.frames, kPeers) << "exchange_owned rank " << r;
    EXPECT_EQ(x.payload, payload) << "exchange_owned rank " << r;
  }
}

// Ranks whose collectives run out of step fail loudly on both sides, each
// naming the other rank — never a hang, never a merged foreign frame. The
// timeout only turns an unexpected hang into a failure here.
TEST(SocketTransport, MismatchedCollectivesNameThePeer) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "5000");
  auto [t0, t1] = loopback_pair();
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  std::array<std::string, 2> errors;
  run_ranks(2, [&](int r) {
    try {
      if (r == 0) {
        t0->allreduce_sum(5);
      } else {
        std::vector<int> values(10, 3);
        t1->gather_colors(part, values);
      }
    } catch (const WireError& e) {
      errors[static_cast<std::size_t>(r)] = e.what();
    }
  });
  for (int r = 0; r < 2; ++r) {
    const std::string& what = errors[static_cast<std::size_t>(r)];
    EXPECT_NE(what.find("rank " + std::to_string(1 - r)), std::string::npos)
        << "rank " << r << ": '" << what << "'";
    EXPECT_EQ(what.find("timed out"), std::string::npos) << what;
  }
}

// --- multi-machine hardening (DELTACOL_NET_TIMEOUT_MS) ---------------------

TEST(SocketTransport, RendezvousTimesOutWhenAPeerNeverDials) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "300");
  // Rank 0 of a 2-rank cluster: it listens and waits for rank 1's dial,
  // which never comes. Without the timeout this would hang forever.
  bool ran = false;
  for (int attempt = 0; attempt < 5 && !ran; ++attempt) {
    const int port_base =
        23000 + static_cast<int>((::getpid() * 7 + attempt * 131) % 30000);
    NetConfig cfg;
    cfg.rank = 0;
    cfg.world = 2;
    cfg.endpoints = NetConfig::localhost_endpoints(2, port_base);
    try {
      SocketTransport t(cfg);
      FAIL() << "rendezvous succeeded with no peer?";
    } catch (const WireError& e) {
      const std::string what = e.what();
      if (what.find("bind") != std::string::npos) continue;  // port taken
      ran = true;
      EXPECT_NE(what.find("timed out"), std::string::npos) << what;
      EXPECT_NE(what.find("to dial"), std::string::npos) << what;
    }
  }
  if (!ran) GTEST_SKIP() << "no free port found for the listener";
}

TEST(SocketTransport, ConnectBudgetBoundedByEnvTimeout) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "300");
  // Rank 1 dials rank 0's endpoint, where nothing listens: the env budget
  // replaces the 20 s default, so this fails in ~300 ms.
  bool ran = false;
  for (int attempt = 0; attempt < 5 && !ran; ++attempt) {
    const int port_base =
        23000 + static_cast<int>((::getpid() * 13 + attempt * 173) % 30000);
    NetConfig cfg;
    cfg.rank = 1;
    cfg.world = 2;
    cfg.endpoints = NetConfig::localhost_endpoints(2, port_base);
    try {
      SocketTransport t(cfg);
      FAIL() << "connect succeeded with no listener?";
    } catch (const WireError& e) {
      const std::string what = e.what();
      if (what.find("bind") != std::string::npos) continue;  // port taken
      ran = true;
      EXPECT_NE(what.find("could not connect"), std::string::npos) << what;
    }
  }
  if (!ran) GTEST_SKIP() << "no free port found for the listener";
}

TEST(SocketTransport, SilentPeerMidExchangeNamesTheRank) {
  // The timeout is read at construction: set it before building the pair.
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "300");
  auto [t0, t1] = loopback_pair();
  // Rank 0's tiny frame fits in the kernel buffer, so its send completes;
  // rank 1 never writes, so the read times out and names the silent peer.
  std::vector<WireBuf> row(2);
  try {
    t0->all_gather_rows(std::move(row));
    FAIL() << "exchange completed against a silent peer?";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
  }
}

// A peer that stalls must not hang this rank: the read AND every frame write
// of a collective are bounded by DELTACOL_NET_TIMEOUT_MS. The slot below is
// several times a socketpair's default send buffer (~208 KiB), so writing
// it to a peer that never reads blocks; it stays small enough that encoding
// it in an unoptimized build is a small part of the time budget.
constexpr int kStallTimeoutMs = 400;
constexpr std::size_t kStallSlotBytes = 1u << 20;

// Runs `call` on its own thread against a rank 1 whose end of the socket is
// `stalled_fd` and expects a WireError naming rank 1 within twice the
// timeout. A call still blocked by then is a failure; closing the stalled
// end releases its writer so the test itself cannot hang.
template <typename Call>
void expect_stall_fails_naming_rank_1(int& stalled_fd, Call call) {
  auto result = std::async(std::launch::async, [&]() -> std::string {
    try {
      call();
    } catch (const WireError& e) {
      return e.what();
    }
    return "(no error)";
  });
  if (result.wait_for(std::chrono::milliseconds(2 * kStallTimeoutMs)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "collective still blocked " << 2 * kStallTimeoutMs
                  << " ms after it started against a stalled peer";
    ::close(stalled_fd);
    stalled_fd = -1;
    result.wait();
    return;
  }
  const std::string what = result.get();
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("timed out"), std::string::npos) << what;
}

// Rank 1 neither reads nor writes: the read times out, and so must the
// write of rank 0's large frame.
TEST(SocketTransport, PeerThatNeverReadsOrWritesCannotHangACollective) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", std::to_string(kStallTimeoutMs));
  for (bool owned : {false, true}) {
    SCOPED_TRACE(owned ? "exchange_owned" : "all_gather_rows");
    FdPair fds;
    SocketTransport t0(0, 2, std::vector<int>{-1, fds.a});
    fds.a = -1;
    std::vector<WireBuf> slots(2);
    slots[1].assign(kStallSlotBytes, 0xAB);
    expect_stall_fails_naming_rank_1(fds.b, [&] {
      if (owned) {
        t0.exchange_owned(std::move(slots), {0, 0}, {0, 0});
      } else {
        t0.all_gather_rows(std::move(slots));
      }
    });
    fds.close_remaining();
  }
}

// Rank 1 sends its whole frame of the collective and then stops reading:
// rank 0's read succeeds, so only the write deadline ends the call.
TEST(SocketTransport, PeerThatStopsReadingCannotHangACollective) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", std::to_string(kStallTimeoutMs));
  FdPair fds;
  SocketTransport t0(0, 2, std::vector<int>{-1, fds.a});
  fds.a = -1;
  // Rank 1's all-gather frame for sequence 0: sender, seq, slot count, and
  // two empty slots.
  WireWriter w;
  for (std::uint32_t field : {1u, 0u, 2u, 0u, 0u}) w.put_u32(field);
  write_frame(fds.b, w.take());
  std::vector<WireBuf> slots(2);
  slots[1].assign(kStallSlotBytes, 0xAB);
  expect_stall_fails_naming_rank_1(
      fds.b, [&] { t0.all_gather_rows(std::move(slots)); });
  fds.close_remaining();
}

// --- the owned-frame decoder against a recorded 3-rank round -----------------
//
// One owner-routed round of a real 3-rank mesh is recorded off the wire: the
// links into rank 0 run through taps that forward every frame unchanged and
// keep a copy of what ranks 1 and 2 sent. The slots carry Luby-shaped
// messages (a u8 join flag, a u64 priority — the codec mis/luby_sync.cpp
// registers). Replaying recorded frames, verbatim or mutated, into a fresh
// rank 0 exercises the receive path a live peer cannot be made to misbehave
// on: the transport's frame checks, then Mailbox::fill's one-pass decode.

using LubyShaped = std::pair<bool, std::uint64_t>;
using LubyMailbox = Mailbox<LubyShaped>;
constexpr int kRecWorld = 3;
constexpr std::size_t kRecHeaderBytes = 20 + 16 * kRecWorld + 4;
constexpr std::size_t kRecEnvelopeBytes = 8 + 9;

// 9 vertices, rank r owns {3r, 3r + 1, 3r + 2}.
VertexPartition recorded_partition() {
  return VertexPartition::contiguous(3 * kRecWorld, kRecWorld);
}

// Rank r's envelopes for the recorded round: rank 1 sends rank 0 one
// envelope (4 -> 2), rank 2 sends rank 0 two (6 -> 0, 8 -> 1) and rank 1
// one, rank 0 sends one to each peer.
void post_recorded_round(LubyMailbox& mb, int r) {
  if (r == 0) {
    mb.post(0, 0, 3, {false, 11});
    mb.post(0, 1, 7, {true, 12});
  } else if (r == 1) {
    mb.post(1, 4, 2, {true, 0x0102030405060708u});
  } else {
    mb.post(2, 6, 0, {false, 5});
    mb.post(2, 8, 1, {true, 9});
    mb.post(2, 8, 5, {false, 7});
  }
}

// Rank r's owned exchange of its mailbox row; returns the result with the
// row's tallies taken from the mailbox, exactly as the engine ships them.
Transport::OwnedExchange exchange_row(SocketTransport& t, LubyMailbox& mb,
                                      int r) {
  std::vector<std::int64_t> counts(kRecWorld);
  std::vector<std::int64_t> bits(kRecWorld);
  for (int d = 0; d < kRecWorld; ++d) {
    counts[static_cast<std::size_t>(d)] = mb.slot_counts()[r * kRecWorld + d];
    bits[static_cast<std::size_t>(d)] = mb.slot_bits()[r * kRecWorld + d];
  }
  return t.exchange_owned(mb.encode_owned_row(r), std::move(counts),
                          std::move(bits));
}

// The frames ranks 1 and 2 sent rank 0 (payloads, without the length
// prefix), recorded from a live round in which rank 0 also decoded them.
struct RecordedRound {
  WireBuf from1;
  WireBuf from2;
};

RecordedRound record_owned_round() {
  const VertexPartition part = recorded_partition();
  // Rank 0's link to peer p is a socketpair whose far end is a tap; the tap
  // relays one frame each way to a second socketpair that ends at rank p.
  std::vector<std::vector<int>> fds(kRecWorld, std::vector<int>(kRecWorld, -1));
  std::array<int, kRecWorld> tap_near{};  // the tap's end facing rank 0
  std::array<int, kRecWorld> tap_far{};   // the tap's end facing rank p
  for (int p = 1; p < kRecWorld; ++p) {
    const FdPair near;
    const FdPair far;
    fds[0][static_cast<std::size_t>(p)] = near.a;
    tap_near[static_cast<std::size_t>(p)] = near.b;
    tap_far[static_cast<std::size_t>(p)] = far.a;
    fds[static_cast<std::size_t>(p)][0] = far.b;
  }
  const FdPair direct;  // ranks 1 and 2 talk untapped
  fds[1][2] = direct.a;
  fds[2][1] = direct.b;
  std::vector<std::unique_ptr<SocketTransport>> mesh;
  for (int r = 0; r < kRecWorld; ++r) {
    mesh.push_back(std::make_unique<SocketTransport>(
        r, kRecWorld, std::move(fds[static_cast<std::size_t>(r)])));
  }

  RecordedRound rec;
  std::vector<std::thread> taps;
  for (int p = 1; p < kRecWorld; ++p) {
    taps.emplace_back([&, p] {
      const int near = tap_near[static_cast<std::size_t>(p)];
      const int far = tap_far[static_cast<std::size_t>(p)];
      // Both frames fit a socket buffer, so relaying one direction after
      // the other cannot stall either rank. A rank that failed closes its
      // end, which ends the relay.
      try {
        WireBuf up = read_frame(far);
        write_frame(near, up);
        write_frame(far, read_frame(near));
        (p == 1 ? rec.from1 : rec.from2) = std::move(up);
      } catch (const WireError& e) {
        ADD_FAILURE() << "tap for rank " << p << ": " << e.what();
      }
    });
  }
  const auto stop = [&] {
    mesh.clear();  // closes every rank's sockets
    for (std::thread& t : taps) t.join();
    for (int p = 1; p < kRecWorld; ++p) {
      ::close(tap_near[static_cast<std::size_t>(p)]);
      ::close(tap_far[static_cast<std::size_t>(p)]);
    }
  };
  try {
    run_ranks(kRecWorld, [&](int r) {
      LubyMailbox mb(&part);
      post_recorded_round(mb, r);
      const auto result =
          exchange_row(*mesh[static_cast<std::size_t>(r)], mb, r);
      for (int s = 0; s < kRecWorld; ++s) {
        if (s != r) mb.fill(s, r, result.slots[static_cast<std::size_t>(s)]);
      }
      if (r == 0) {
        // The live round delivered what ranks 1 and 2 posted, in post order.
        EXPECT_EQ(mb.slot(1, 0).size(), 1u);
        ASSERT_EQ(mb.slot(2, 0).size(), 2u);
        EXPECT_EQ(mb.slot(2, 0)[1].from, 8);
        EXPECT_EQ(mb.slot(2, 0)[1].to, 1);
        EXPECT_EQ(mb.slot(2, 0)[1].msg, (LubyShaped{true, 9}));
      }
    });
  } catch (...) {
    stop();
    throw;
  }
  stop();
  return rec;
}

// `payload` as it travels on the stream: its u32 length prefix, then the
// payload itself.
std::vector<std::uint8_t> framed(const WireBuf& payload) {
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_bytes(payload);
  return w.take();
}

// Rank 0 of a fresh 3-rank world reads `stream1` as everything rank 1 sends
// (rank 1 then hangs up if `hang_up`) and the frame `from2` from rank 2,
// then fills `mb` from the slots it got, as the engine does. Returns the
// WireError text, "" on success; `mb` is left as the fill left it.
std::string replay_into_rank0(const std::vector<std::uint8_t>& stream1,
                              bool hang_up, const WireBuf& from2,
                              LubyMailbox& mb) {
  FdPair p1;
  FdPair p2;
  SocketTransport t0(0, kRecWorld, std::vector<int>{-1, p1.a, p2.a});
  p1.a = p2.a = -1;
  if (!stream1.empty()) {
    EXPECT_EQ(::send(p1.b, stream1.data(), stream1.size(), 0),
              static_cast<ssize_t>(stream1.size()));
  }
  if (hang_up) {
    ::close(p1.b);
    p1.b = -1;
  }
  write_frame(p2.b, from2);
  std::string error;
  try {
    const auto result = exchange_row(t0, mb, 0);
    for (int s = 1; s < kRecWorld; ++s) {
      mb.fill(s, 0, result.slots[static_cast<std::size_t>(s)]);
    }
  } catch (const WireError& e) {
    error = e.what();
  }
  p1.close_remaining();
  p2.close_remaining();
  return error;
}

// `frame` with the u32 at `offset` replaced by `value`.
WireBuf with_u32_at(WireBuf frame, std::size_t offset, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    frame[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return frame;
}

// The recorded frame rank 1 sent rank 0, byte for byte: it pins the owned
// frame layout and, in its one-envelope Luby slot, the envelope field order
// (to before from).
TEST(SocketTransport, RecordedOwnedFrameIsByteExact) {
  const RecordedRound rec = record_owned_round();
  const WireBuf expect = {
      0x0E, 0xDC, 0, 0,  // tag: owned exchange
      1, 0, 0, 0,        // sender rank 1
      0, 0, 0, 0,        // seq 0
      0, 0, 0, 0,        // destination rank 0
      3, 0, 0, 0,        // world 3
      1, 0, 0, 0, 0, 0, 0, 0,   // rank 1's posted counts: 1 to rank 0,
      0, 0, 0, 0, 0, 0, 0, 0,   //   none to itself,
      0, 0, 0, 0, 0, 0, 0, 0,   //   none to rank 2
      65, 0, 0, 0, 0, 0, 0, 0,  // posted bits: one 65-bit Luby message
      0, 0, 0, 0, 0, 0, 0, 0,   //
      0, 0, 0, 0, 0, 0, 0, 0,   //
      21, 0, 0, 0,       // slot length
      1, 0, 0, 0,        // slot: 1 envelope
      2, 0, 0, 0,        //   to 2
      4, 0, 0, 0,        //   from 4
      1,                 //   join flag
      8, 7, 6, 5, 4, 3, 2, 1,  // priority 0x0102030405060708
  };
  EXPECT_EQ(rec.from1, expect);
  EXPECT_EQ(rec.from1.size(), kRecHeaderBytes + 4 + kRecEnvelopeBytes);
  EXPECT_EQ(rec.from2.size(), kRecHeaderBytes + 4 + 2 * kRecEnvelopeBytes);
}

// Every proper prefix of a recorded frame is rejected, naming the peer:
// cut inside the payload but framed whole, and cut on the stream followed
// by a hang-up.
TEST(SocketTransport, EveryProperPrefixOfAnOwnedFrameNamesThePeer) {
  const RecordedRound rec = record_owned_round();
  const VertexPartition part = recorded_partition();
  const auto expect_named = [&](const std::vector<std::uint8_t>& stream1,
                                bool hang_up, std::size_t cut) {
    LubyMailbox mb(&part);
    const std::string what = replay_into_rank0(stream1, hang_up, rec.from2, mb);
    EXPECT_NE(what.find("rank 0: reading from rank 1"), std::string::npos)
        << "cut at " << cut << (hang_up ? " of the stream" : " of the payload")
        << ": '" << what << "'";
    EXPECT_TRUE(mb.slot(1, 0).empty());
  };
  for (std::size_t cut = 0; cut < rec.from1.size(); ++cut) {
    expect_named(framed(WireBuf(rec.from1.begin(),
                                rec.from1.begin() +
                                    static_cast<std::ptrdiff_t>(cut))),
                 false, cut);
  }
  const std::vector<std::uint8_t> stream = framed(rec.from1);
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    expect_named(std::vector<std::uint8_t>(
                     stream.begin(), stream.begin() +
                                         static_cast<std::ptrdiff_t>(cut)),
                 true, cut);
  }
}

// An envelope count the slot's bytes cannot hold (each envelope needs at
// least its 8 addressing bytes) is rejected before the slot reserves a
// single envelope; a count that passes that bound but overruns the bytes
// still fails as a truncation.
TEST(SocketTransport, OwnedSlotCountBeyondItsBytesIsRejectedBeforeAllocating) {
  const RecordedRound rec = record_owned_round();
  const VertexPartition part = recorded_partition();
  const std::size_t slot_bytes = rec.from2.size() - kRecHeaderBytes;
  const std::uint32_t fits = static_cast<std::uint32_t>((slot_bytes - 4) / 8);
  for (std::uint32_t count : {fits + 1, 0xFFFFFFFFu, fits}) {
    SCOPED_TRACE("count " + std::to_string(count));
    LubyMailbox mb(&part);
    const WireBuf bad = with_u32_at(rec.from2, kRecHeaderBytes, count);
    const std::string what =
        replay_into_rank0(framed(rec.from1), false, bad, mb);
    EXPECT_NE(what.find("mailbox slot (2, 0)"), std::string::npos) << what;
    EXPECT_TRUE(mb.slot(2, 0).empty());
    if (count > fits) {
      EXPECT_NE(what.find("exceeds"), std::string::npos) << what;
      EXPECT_EQ(mb.slot(2, 0).capacity(), 0u);
    } else {
      EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    }
    EXPECT_EQ(mb.slot_counts()[2 * kRecWorld + 0], 0);
  }
}

// Rewriting any envelope's `to` or `from` to a vertex of the wrong shard is
// a misaddressed envelope: the fill throws, and the slot stays empty,
// untallied and unfilled — the genuine slot still fills afterwards.
TEST(SocketTransport, MisaddressedEnvelopeInAnOwnedFrameLeavesTheSlotUnfilled) {
  const RecordedRound rec = record_owned_round();
  const VertexPartition part = recorded_partition();
  const std::span<const std::uint8_t> genuine =
      std::span<const std::uint8_t>(rec.from2).subspan(kRecHeaderBytes);
  struct Field {
    std::size_t offset;               // within an envelope
    std::vector<std::uint32_t> wrong;  // vertices of a foreign shard
  };
  // `to` must be rank 0's (0..2); `from` must be rank 2's (6..8).
  const Field fields[] = {{0, {3, 7}}, {4, {0, 4}}};
  for (std::size_t env = 0; env < 2; ++env) {
    for (const Field& field : fields) {
      for (std::uint32_t v : field.wrong) {
        SCOPED_TRACE("envelope " + std::to_string(env) + " field +" +
                     std::to_string(field.offset) + " -> " + std::to_string(v));
        const std::size_t at =
            kRecHeaderBytes + 4 + env * kRecEnvelopeBytes + field.offset;
        LubyMailbox mb(&part);
        const std::string what = replay_into_rank0(
            framed(rec.from1), false, with_u32_at(rec.from2, at, v), mb);
        EXPECT_NE(what.find("mailbox slot (2, 0)"), std::string::npos) << what;
        EXPECT_NE(what.find("misaddressed"), std::string::npos) << what;
        EXPECT_TRUE(mb.slot(2, 0).empty());
        EXPECT_EQ(mb.slot_counts()[2 * kRecWorld + 0], 0);
        EXPECT_EQ(mb.slot_bits()[2 * kRecWorld + 0], 0);
        EXPECT_NO_THROW(mb.fill(2, 0, genuine));
        EXPECT_EQ(mb.slot(2, 0).size(), 2u);
      }
    }
  }
}

// --- the headline differential ---------------------------------------------

struct LubyRun {
  std::vector<bool> mis;
  std::int64_t ledger_total = 0;
  std::int64_t total_bits = 0;
  std::int64_t cross_bits = 0;
  std::int64_t total_messages = 0;
  std::int64_t rounds_recorded = 0;
};

LubyRun run_luby(const Graph& g, ShardRuntime& runtime,
                 std::int64_t congest_bits) {
  Rng rng(7);
  RoundLedger ledger;
  if (congest_bits > 0) ledger.set_congest_bits(congest_bits);
  LubyRun out;
  out.mis = luby_mis_message_passing(g, rng, ledger, "luby", nullptr, &runtime);
  out.ledger_total = ledger.total();
  out.total_bits = runtime.total_bits();
  out.cross_bits = runtime.cross_shard_bits();
  out.total_messages = runtime.total_messages();
  out.rounds_recorded = runtime.rounds_recorded();
  return out;
}

// Two real ranks — rank-local merge over owned-only state, point-to-point
// cross slots, the end-of-run gather — versus the in-process golden at S=2.
// Every observable (MIS, ledger, bit/message counters, the full per-slot
// matrices) must be bit-identical, and each rank's MEASURED cross payload
// must equal the closed form from its own counters: every engine round
// frames one slot (its 4-byte count prefix) to each of the S-1 peers, and
// every outgoing cross envelope costs its addressing plus the 9-byte Luby
// payload.
TEST(SocketTransport, LubyBitIdenticalToInProcessAcrossTheZoo) {
  constexpr int kWorld = 2;
  constexpr std::int64_t kLubyPayloadBytes = 9;  // ceil(1/8) + ceil(64/8)
  for (const auto& w : generator_zoo()) {
    for (std::int64_t bits : {std::int64_t{0}, std::int64_t{64}}) {
      // Golden: the in-process sharded run at S=2.
      ShardRuntime golden_rt(w.graph, kWorld, nullptr);
      const LubyRun golden = run_luby(w.graph, golden_rt, bits);

      // Distributed: two ranks, each with its own ShardRuntime over its
      // half of the socketpair, running concurrently.
      auto [t0, t1] = loopback_pair();
      SocketTransport* traw[kWorld] = {t0.get(), t1.get()};
      std::vector<LubyRun> per_rank(kWorld);
      std::vector<std::unique_ptr<ShardRuntime>> rts(kWorld);
      rts[0] = std::make_unique<ShardRuntime>(w.graph, kWorld, nullptr,
                                              std::move(t0));
      rts[1] = std::make_unique<ShardRuntime>(w.graph, kWorld, nullptr,
                                              std::move(t1));
      run_ranks(kWorld, [&](int r) {
        per_rank[static_cast<std::size_t>(r)] =
            run_luby(w.graph, *rts[static_cast<std::size_t>(r)], bits);
      });

      for (int r = 0; r < kWorld; ++r) {
        const LubyRun& got = per_rank[static_cast<std::size_t>(r)];
        EXPECT_EQ(got.mis, golden.mis) << w.name << " B=" << bits << " rank " << r;
        EXPECT_EQ(got.ledger_total, golden.ledger_total)
            << w.name << " B=" << bits << " rank " << r;
        EXPECT_EQ(got.total_bits, golden.total_bits)
            << w.name << " B=" << bits << " rank " << r;
        EXPECT_EQ(got.cross_bits, golden.cross_bits)
            << w.name << " B=" << bits << " rank " << r;
        EXPECT_EQ(got.total_messages, golden.total_messages)
            << w.name << " B=" << bits << " rank " << r;
        EXPECT_EQ(got.rounds_recorded, golden.rounds_recorded)
            << w.name << " B=" << bits << " rank " << r;
        const ShardRuntime& rt = *rts[static_cast<std::size_t>(r)];
        std::int64_t outgoing = 0;
        for (int d = 0; d < kWorld; ++d) {
          if (d != r) outgoing += rt.slot_messages(r, d);
        }
        EXPECT_EQ(traw[r]->cross_payload_bytes(),
                  rt.rounds_recorded() * (kWorld - 1) * kWireSlotPrefixBytes +
                      outgoing * (kWireEnvelopeOverheadBytes + kLubyPayloadBytes))
            << w.name << " B=" << bits << " rank " << r;
      }
      // The reassembled per-slot matrices match the golden's exactly.
      for (int a = 0; a < kWorld; ++a) {
        for (int b = 0; b < kWorld; ++b) {
          EXPECT_EQ(rts[0]->slot_messages(a, b), golden_rt.slot_messages(a, b))
              << w.name << " B=" << bits;
          EXPECT_EQ(rts[1]->slot_bits(a, b), golden_rt.slot_bits(a, b))
              << w.name << " B=" << bits;
        }
      }
    }
  }
}

}  // namespace
}  // namespace deltacol
