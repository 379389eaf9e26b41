#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string_view>
#include <thread>

#include "net/frame.h"
#include "net/wire_codec.h"
#include "util/check.h"

namespace deltacol {

namespace {

/// The first frame on every rendezvous connection: tag, dialing rank.
constexpr std::uint32_t kHelloMagic = 0xDC01u;

/// Collective tags. Every collective consumes one tick of the SAME sequence
/// counter, and every owned/reduce/gather frame leads with the prefix (tag,
/// u32 sender rank, u32 seq) — so a rank whose collectives run out of step
/// reads a wrong tag/seq and fails loudly instead of merging a stale or
/// foreign frame. The owned-frame layout's closed-form byte accounting is
/// pinned by bench_e17.
constexpr std::uint32_t kOwnedMagic = 0xDC0Eu;   // exchange_owned
constexpr std::uint32_t kReduceMagic = 0xDC0Fu;  // allreduce_{sum,max}
constexpr std::uint32_t kGatherMagic = 0xDC10u;  // gather_colors

/// `text` as a base-10 integer in [lo, hi]: the whole token, no whitespace,
/// no trailing characters. Throws ContractViolation naming `what` otherwise.
int parse_int_token(std::string_view text, int lo, int hi,
                    const std::string& what) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  DC_REQUIRE(!text.empty() && ec == std::errc() && ptr == end && lo <= value &&
                 value <= hi,
             what + " must be an integer in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "], got '" + std::string(text) + "'");
  return value;
}

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr int kMaxPort = 65535;

/// DELTACOL_NET_TIMEOUT_MS (read once per transport, at construction):
/// <= 0 / unset = wait forever (the original behavior).
int net_timeout_from_env() {
  const char* s = std::getenv("DELTACOL_NET_TIMEOUT_MS");
  if (s == nullptr) return 0;
  const int ms = parse_int_token(s, std::numeric_limits<int>::min(), kIntMax,
                                 "DELTACOL_NET_TIMEOUT_MS");
  return ms > 0 ? ms : 0;
}

/// Checks the (sender, seq) fields every exchange frame carries: the frame
/// must come from `peer` at this collective's sequence number `seq`.
void expect_sender_and_seq(WireReader& r, int peer, std::uint32_t seq) {
  const std::uint32_t sender = r.get_u32();
  const std::uint32_t got_seq = r.get_u32();
  if (sender != static_cast<std::uint32_t>(peer)) {
    throw WireError("frame from rank " + std::to_string(sender) +
                    " arrived on the connection to rank " +
                    std::to_string(peer));
  }
  if (got_seq != seq) {
    throw WireError("out of step: frame seq " + std::to_string(got_seq) +
                    " != expected " + std::to_string(seq));
  }
}

/// The (tag, sender, seq) prefix of the owned, reduce and gather frames.
void put_prefix(WireWriter& w, std::uint32_t tag, int sender,
                std::uint32_t seq) {
  w.put_u32(tag);
  w.put_u32(static_cast<std::uint32_t>(sender));
  w.put_u32(seq);
}

void expect_prefix(WireReader& r, std::uint32_t tag, int peer,
                   std::uint32_t seq) {
  const std::uint32_t got_tag = r.get_u32();
  if (got_tag != tag) {
    throw WireError("frame tag " + std::to_string(got_tag) + " != expected " +
                    std::to_string(tag) + ": rank " + std::to_string(peer) +
                    " is running a different collective");
  }
  expect_sender_and_seq(r, peer, seq);
}

/// Owned-exchange frame payload: the prefix, u32 destination rank, u32
/// world, world×u64 posted-envelope counts (the sender's mailbox row),
/// world×u64 posted wire bits, u32 slot length + the encoded (sender, dest)
/// slot. The tally rows ride along so every rank reassembles the full S×S
/// counters without a second collective. Everything before the slot is the
/// header; the slot itself goes on the wire from the caller's buffer.
constexpr std::int64_t owned_frame_header_bytes(int world) {
  return 5 * 4 + static_cast<std::int64_t>(world) * 16 + 4;
}

/// Writes the owned-frame header for a `slot_bytes`-byte slot into `head`
/// (its capacity is reused across rounds).
void encode_owned_header(int sender, std::uint32_t seq, int dest, int world,
                         const std::vector<std::int64_t>& row_counts,
                         const std::vector<std::int64_t>& row_bits,
                         std::size_t slot_bytes, WireBuf& head) {
  WireWriter w(std::move(head));
  w.reserve(static_cast<std::size_t>(owned_frame_header_bytes(world)));
  put_prefix(w, kOwnedMagic, sender, seq);
  w.put_u32(static_cast<std::uint32_t>(dest));
  w.put_u32(static_cast<std::uint32_t>(world));
  for (std::int64_t c : row_counts) w.put_u64(static_cast<std::uint64_t>(c));
  for (std::int64_t b : row_bits) w.put_u64(static_cast<std::uint64_t>(b));
  w.put_u32(static_cast<std::uint32_t>(slot_bytes));
  head = w.take();
}

/// Checks `sender`'s owned frame and decodes its tallies into row `sender`
/// of `out`; `out.slots[sender]` becomes a view of the slot bytes inside
/// `payload` (no copy).
void decode_owned_frame(const WireBuf& payload, int sender, std::uint32_t seq,
                        int dest, int world, Transport::OwnedExchange& out) {
  WireReader r(payload);
  expect_prefix(r, kOwnedMagic, sender, seq);
  const std::uint32_t got_dest = r.get_u32();
  const std::uint32_t got_world = r.get_u32();
  if (got_dest != static_cast<std::uint32_t>(dest)) {
    throw WireError("owner-routed frame addressed to rank " +
                    std::to_string(got_dest) + " delivered to rank " +
                    std::to_string(dest));
  }
  if (got_world != static_cast<std::uint32_t>(world)) {
    throw WireError("owner-routed frame carries a row for a world of " +
                    std::to_string(got_world) + ", expected " +
                    std::to_string(world));
  }
  const std::size_t row = static_cast<std::size_t>(sender) *
                          static_cast<std::size_t>(world);
  for (std::size_t d = 0; d < got_world; ++d) {
    out.slot_counts[row + d] = static_cast<std::int64_t>(r.get_u64());
  }
  for (std::size_t d = 0; d < got_world; ++d) {
    out.slot_bits[row + d] = static_cast<std::int64_t>(r.get_u64());
  }
  const std::uint32_t len = r.get_u32();
  if (len != r.remaining()) {
    throw WireError("owner-routed frame slot length disagrees with the frame");
  }
  out.slots[static_cast<std::size_t>(sender)] = r.get_bytes(len);
}

/// All-gather frame payload (untagged): u32 sender rank, u32 seq, u32 slot
/// count, then per slot u32 length + bytes.
WireBuf encode_exchange_frame(int sender, std::uint32_t seq,
                              const std::vector<WireBuf>& row) {
  std::size_t bytes = 12;
  for (const WireBuf& slot : row) bytes += 4 + slot.size();
  WireWriter w;
  w.reserve(bytes);
  w.put_u32(static_cast<std::uint32_t>(sender));
  w.put_u32(seq);
  w.put_u32(static_cast<std::uint32_t>(row.size()));
  for (const WireBuf& slot : row) {
    w.put_u32(static_cast<std::uint32_t>(slot.size()));
    w.put_bytes(slot);
  }
  return w.take();
}

std::vector<WireBuf> decode_exchange_frame(const WireBuf& payload, int sender,
                                           std::uint32_t seq, int world) {
  WireReader r(payload);
  expect_sender_and_seq(r, sender, seq);
  const std::uint32_t slots = r.get_u32();
  if (slots != static_cast<std::uint32_t>(world)) {
    throw WireError("exchange frame carries " + std::to_string(slots) +
                    " slots for a world of " + std::to_string(world));
  }
  std::vector<WireBuf> row(slots);
  for (WireBuf& slot : row) {
    const std::uint32_t len = r.get_u32();
    if (len > r.remaining()) {
      throw WireError("exchange frame slot length overruns the frame");
    }
    const std::span<const std::uint8_t> bytes = r.get_bytes(len);
    slot.assign(bytes.begin(), bytes.end());
  }
  if (!r.done()) throw WireError("trailing bytes after exchange frame slots");
  return row;
}

void set_nodelay(int fd) {
  int one = 1;
  // Best effort: socketpair(AF_UNIX) fds used by the hermetic tests reject
  // TCP options, which is fine — they have no Nagle to disable.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int connect_with_retry(const std::string& host, int port, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::string port_str = std::to_string(port);
  for (;;) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
    if (gai == 0) {
      for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
          ::freeaddrinfo(res);
          set_nodelay(fd);
          return fd;
        }
        ::close(fd);
      }
      ::freeaddrinfo(res);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw WireError("rendezvous: could not connect to " + host + ":" +
                      port_str + " within the timeout — is the peer up?");
    }
    // The peer may simply not have bound its listener yet; back off briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

int listen_on(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw WireError("rendezvous: socket() failed");
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw WireError("rendezvous: bind to port " + std::to_string(port) +
                    " failed: " + std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    throw WireError("rendezvous: listen failed");
  }
  return fd;
}

}  // namespace

std::vector<std::pair<std::string, int>> NetConfig::parse_endpoints(
    const std::string& spec) {
  std::vector<std::pair<std::string, int>> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    const std::size_t colon = item.rfind(':');
    DC_REQUIRE(colon != std::string::npos && colon > 0 &&
                   colon + 1 < item.size(),
               "endpoint must be host:port, got '" + item + "'");
    const int port = parse_int_token(std::string_view(item).substr(colon + 1),
                                     1, kMaxPort,
                                     "endpoint port in '" + item + "'");
    out.emplace_back(item.substr(0, colon), port);
    begin = end + 1;
  }
  return out;
}

std::vector<std::pair<std::string, int>> NetConfig::localhost_endpoints(
    int world, int port_base) {
  DC_REQUIRE(world >= 1, "world must be positive");
  DC_REQUIRE(port_base > 0 && port_base <= kMaxPort - (world - 1),
             "port range out of bounds");
  std::vector<std::pair<std::string, int>> out;
  out.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) out.emplace_back("127.0.0.1", port_base + r);
  return out;
}

std::optional<NetConfig> NetConfig::from_env() {
  const char* rank_s = std::getenv("DELTACOL_RANK");
  const char* world_s = std::getenv("DELTACOL_WORLD");
  if (rank_s == nullptr && world_s == nullptr) return std::nullopt;
  DC_REQUIRE(rank_s != nullptr && world_s != nullptr,
             "DELTACOL_RANK and DELTACOL_WORLD must be set together");
  NetConfig cfg;
  cfg.world = parse_int_token(world_s, 1, kIntMax, "DELTACOL_WORLD");
  cfg.rank = parse_int_token(rank_s, 0, cfg.world - 1, "DELTACOL_RANK");
  if (const char* eps = std::getenv("DELTACOL_ENDPOINTS")) {
    cfg.endpoints = parse_endpoints(eps);
  } else if (const char* base = std::getenv("DELTACOL_PORT_BASE")) {
    const int port_base =
        parse_int_token(base, 1, kMaxPort, "DELTACOL_PORT_BASE");
    // Rank r listens on DELTACOL_PORT_BASE + r: the last port must fit too.
    DC_REQUIRE(port_base <= kMaxPort - (cfg.world - 1),
               "DELTACOL_PORT_BASE + DELTACOL_WORLD - 1 exceeds 65535");
    cfg.endpoints = localhost_endpoints(cfg.world, port_base);
  } else {
    DC_REQUIRE(false,
               "set DELTACOL_ENDPOINTS (host:port,...) or DELTACOL_PORT_BASE");
  }
  cfg.validate();
  return cfg;
}

void NetConfig::validate() const {
  DC_REQUIRE(world >= 1, "world must be positive");
  DC_REQUIRE(rank >= 0 && rank < world, "rank out of range for world");
  DC_REQUIRE(static_cast<int>(endpoints.size()) == world,
             "need exactly one endpoint per rank");
}

SocketTransport::SocketTransport(const NetConfig& cfg, int connect_timeout_ms)
    : rank_(cfg.rank), world_(cfg.world), net_timeout_ms_(net_timeout_from_env()) {
  cfg.validate();
  fds_.assign(static_cast<std::size_t>(world_), -1);
  rx_.resize(static_cast<std::size_t>(world_));
  tx_heads_.resize(static_cast<std::size_t>(world_));
  if (world_ == 1) return;  // a lonely rank needs no mesh

  // DELTACOL_NET_TIMEOUT_MS overrides the connect budget and additionally
  // bounds the accept wait — a rank whose peer never dials fails loudly
  // instead of sitting in accept(2) forever.
  const int budget =
      net_timeout_ms_ > 0 ? net_timeout_ms_ : connect_timeout_ms;
  const int listen_fd = listen_on(cfg.endpoints[static_cast<std::size_t>(rank_)].second,
                                  world_);
  try {
    // Connect to every lower rank; the hello frame tells them who we are.
    for (int r = 0; r < rank_; ++r) {
      const auto& [host, port] = cfg.endpoints[static_cast<std::size_t>(r)];
      const int fd = connect_with_retry(host, port, budget);
      WireWriter hello;
      hello.put_u32(kHelloMagic);
      hello.put_u32(static_cast<std::uint32_t>(rank_));
      write_frame(fd, hello.take(), net_timeout_ms_);
      fds_[static_cast<std::size_t>(r)] = fd;
    }
    // Accept from every higher rank; their hello frame tells us who they are.
    for (int pending = world_ - 1 - rank_; pending > 0; --pending) {
      if (net_timeout_ms_ > 0) {
        pollfd p{};
        p.fd = listen_fd;
        p.events = POLLIN;
        int rv;
        do {
          rv = ::poll(&p, 1, net_timeout_ms_);
        } while (rv < 0 && errno == EINTR);
        if (rv == 0) {
          throw WireError(
              "rendezvous: rank " + std::to_string(rank_) + " timed out after " +
              std::to_string(net_timeout_ms_) + " ms waiting for " +
              std::to_string(pending) + " higher rank(s) to dial");
        }
        if (rv < 0) throw WireError("rendezvous: poll on listener failed");
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) throw WireError("rendezvous: accept failed");
      set_nodelay(fd);
      const WireBuf hello = read_frame(fd, net_timeout_ms_);
      WireReader r(hello);
      const std::uint32_t magic = r.get_u32();
      const std::uint32_t peer = r.get_u32();
      if (magic != kHelloMagic || !r.done() ||
          peer <= static_cast<std::uint32_t>(rank_) ||
          peer >= static_cast<std::uint32_t>(world_) ||
          fds_[peer] != -1) {
        ::close(fd);
        throw WireError("rendezvous: bad hello frame from peer");
      }
      fds_[peer] = fd;
    }
  } catch (...) {
    ::close(listen_fd);
    close_all();
    throw;
  }
  ::close(listen_fd);
}

SocketTransport::SocketTransport(int rank, int world, std::vector<int> peer_fds)
    : rank_(rank),
      world_(world),
      fds_(std::move(peer_fds)),
      net_timeout_ms_(net_timeout_from_env()) {
  DC_REQUIRE(world_ >= 1, "world must be positive");
  DC_REQUIRE(rank_ >= 0 && rank_ < world_, "rank out of range for world");
  DC_REQUIRE(static_cast<int>(fds_.size()) == world_,
             "need one fd slot per rank");
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    DC_REQUIRE(fds_[static_cast<std::size_t>(r)] >= 0,
               "missing peer fd for rank " + std::to_string(r));
  }
  fds_[static_cast<std::size_t>(rank_)] = -1;
  rx_.resize(static_cast<std::size_t>(world_));
  tx_heads_.resize(static_cast<std::size_t>(world_));
}

SocketTransport::~SocketTransport() { close_all(); }

void SocketTransport::close_all() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void SocketTransport::run_shards(const std::function<void(int)>& body) {
  body(rank_);
}

void SocketTransport::swap_frames(
    const std::vector<OutFrame>& to_peers,
    const std::function<void(int, const WireBuf&)>& decode) {
  const auto naming = [this](const char* doing, int peer, const WireError& e) {
    return WireError("rank " + std::to_string(rank_) + ": " + doing +
                     " rank " + std::to_string(peer) + ": " + e.what());
  };
  // One writer thread per peer pushes that peer's frame while this thread
  // reads the peers in rank order — every rank sends and receives at once,
  // so no pair of ranks can deadlock on full socket buffers, and slow peers
  // overlap instead of serializing. A writer that cannot be started fails
  // the call like a read error, after the started writers are joined.
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(world_));
  std::vector<std::exception_ptr> write_errors(static_cast<std::size_t>(world_));
  std::exception_ptr read_error;
  try {
    for (int d = 0; d < world_; ++d) {
      if (d == rank_) continue;
      const OutFrame& frame = to_peers[static_cast<std::size_t>(d)];
      bytes_sent_ += static_cast<std::int64_t>(frame.head.size() +
                                               frame.body.size()) +
                     kFramePrefixBytes;
      ++frames_sent_;
      writers.emplace_back([this, d, &frame, &write_errors, &naming] {
        std::exception_ptr& error = write_errors[static_cast<std::size_t>(d)];
        try {
          write_frame(fds_[static_cast<std::size_t>(d)], frame.head,
                      frame.body, net_timeout_ms_);
        } catch (const WireError& e) {
          error = std::make_exception_ptr(naming("writing to", d, e));
        } catch (...) {
          error = std::current_exception();
        }
      });
    }
    for (int s = 0; s < world_; ++s) {
      if (s == rank_) continue;
      try {
        WireBuf& frame = rx_[static_cast<std::size_t>(s)];
        if (!try_read_frame(fds_[static_cast<std::size_t>(s)], frame,
                            net_timeout_ms_)) {
          throw WireError("unexpected EOF: peer closed before sending a frame");
        }
        bytes_received_ +=
            static_cast<std::int64_t>(frame.size()) + kFramePrefixBytes;
        decode(s, frame);
      } catch (const WireError& e) {
        throw naming("reading from", s, e);
      }
    }
  } catch (...) {
    read_error = std::current_exception();
  }
  for (std::thread& w : writers) w.join();
  if (read_error) std::rethrow_exception(read_error);
  for (const std::exception_ptr& e : write_errors) {
    if (e) std::rethrow_exception(e);
  }
  ++seq_;
}

std::vector<SocketTransport::OutFrame> SocketTransport::to_every_peer(
    const WireBuf& frame) const {
  return std::vector<OutFrame>(static_cast<std::size_t>(world_),
                               OutFrame{frame, {}});
}

std::vector<std::vector<std::vector<std::uint8_t>>>
SocketTransport::all_gather_rows(
    std::vector<std::vector<std::uint8_t>> local_row) {
  DC_REQUIRE(static_cast<int>(local_row.size()) == world_,
             "local row must carry one slot per destination rank");
  std::vector<std::vector<std::vector<std::uint8_t>>> rows(
      static_cast<std::size_t>(world_));
  const WireBuf frame = encode_exchange_frame(rank_, seq_, local_row);
  swap_frames(to_every_peer(frame), [&](int s, const WireBuf& in) {
    rows[static_cast<std::size_t>(s)] =
        decode_exchange_frame(in, s, seq_, world_);
  });
  rows[static_cast<std::size_t>(rank_)] = std::move(local_row);
  return rows;
}

Transport::OwnedExchange SocketTransport::exchange_owned(
    std::vector<std::vector<std::uint8_t>> to_peers,
    std::vector<std::int64_t> row_counts, std::vector<std::int64_t> row_bits) {
  DC_REQUIRE(static_cast<int>(to_peers.size()) == world_,
             "owner-routed exchange needs one slot per destination rank");
  DC_REQUIRE(static_cast<int>(row_counts.size()) == world_ &&
                 static_cast<int>(row_bits.size()) == world_,
             "owner-routed exchange needs one tally per destination rank");
  DC_REQUIRE(to_peers[static_cast<std::size_t>(rank_)].empty(),
             "owner-routed exchange: the local slot never crosses the wire");

  OwnedExchange out;
  out.slots.resize(static_cast<std::size_t>(world_));
  out.slot_counts.assign(
      static_cast<std::size_t>(world_) * static_cast<std::size_t>(world_), 0);
  out.slot_bits.assign(out.slot_counts.size(), 0);
  for (int d = 0; d < world_; ++d) {
    const std::size_t idx = static_cast<std::size_t>(rank_) *
                                static_cast<std::size_t>(world_) +
                            static_cast<std::size_t>(d);
    out.slot_counts[idx] = row_counts[static_cast<std::size_t>(d)];
    out.slot_bits[idx] = row_bits[static_cast<std::size_t>(d)];
  }

  // Each frame is this peer's header followed by the caller's slot buffer,
  // written as one gather write: the slot is never copied into a frame.
  // The per-frame check pins the physical slot payload to exactly the bytes
  // the cross_payload_bytes counter records.
  const std::int64_t header = owned_frame_header_bytes(world_);
  std::vector<OutFrame> frames(static_cast<std::size_t>(world_));
  for (int d = 0; d < world_; ++d) {
    if (d == rank_) continue;
    const WireBuf& slot = to_peers[static_cast<std::size_t>(d)];
    WireBuf& head = tx_heads_[static_cast<std::size_t>(d)];
    encode_owned_header(rank_, seq_, d, world_, row_counts, row_bits,
                        slot.size(), head);
    DC_ENSURE(static_cast<std::int64_t>(head.size()) == header,
              "owner-routed frame header disagrees with its closed form");
    frames[static_cast<std::size_t>(d)] = OutFrame{head, slot};
    cross_payload_bytes_ += static_cast<std::int64_t>(slot.size());
  }
  swap_frames(frames, [&](int s, const WireBuf& in) {
    decode_owned_frame(in, s, seq_, rank_, world_, out);
  });
  out.sent = std::move(to_peers);
  return out;
}

std::vector<std::int64_t> SocketTransport::allreduce_inputs(
    std::int64_t value) {
  WireWriter w;
  put_prefix(w, kReduceMagic, rank_, seq_);
  w.put_u64(static_cast<std::uint64_t>(value));
  const WireBuf frame = w.take();
  std::vector<std::int64_t> values(static_cast<std::size_t>(world_), value);
  swap_frames(to_every_peer(frame), [&](int s, const WireBuf& in) {
    WireReader r(in);
    expect_prefix(r, kReduceMagic, s, seq_);
    values[static_cast<std::size_t>(s)] =
        static_cast<std::int64_t>(r.get_u64());
    if (!r.done()) throw WireError("trailing bytes after a value");
  });
  return values;
}

// Both folds run in ascending rank order over the same inputs, so every rank
// computes the identical result.
std::int64_t SocketTransport::allreduce_sum(std::int64_t value) {
  const std::vector<std::int64_t> values = allreduce_inputs(value);
  return std::accumulate(values.begin(), values.end(), std::int64_t{0});
}

std::int64_t SocketTransport::allreduce_max(std::int64_t value) {
  const std::vector<std::int64_t> values = allreduce_inputs(value);
  return *std::max_element(values.begin(), values.end());
}

void SocketTransport::gather_colors(const VertexPartition& part,
                                    std::vector<int>& values) {
  DC_REQUIRE(part.num_shards() == world_,
             "gather_colors: partition shard count disagrees with the world");
  DC_REQUIRE(static_cast<int>(values.size()) == part.num_vertices(),
             "gather_colors: value array does not span the partition");

  // Frame: the prefix, u32 owned count, count×u32 values in owned order
  // (ascending original id — graph/partition.h).
  WireWriter w;
  put_prefix(w, kGatherMagic, rank_, seq_);
  w.put_u32(static_cast<std::uint32_t>(part.size(rank_)));
  for (int i = 0; i < part.size(rank_); ++i) {
    w.put_u32(static_cast<std::uint32_t>(
        values[static_cast<std::size_t>(part.owned_vertex(rank_, i))]));
  }
  const WireBuf frame = w.take();
  swap_frames(to_every_peer(frame), [&](int s, const WireBuf& in) {
    WireReader r(in);
    expect_prefix(r, kGatherMagic, s, seq_);
    const std::uint32_t count = r.get_u32();
    if (count != static_cast<std::uint32_t>(part.size(s))) {
      throw WireError("gather frame carries " +
                      std::to_string(count) + " values, rank owns " +
                      std::to_string(part.size(s)));
    }
    for (int i = 0; i < part.size(s); ++i) {
      values[static_cast<std::size_t>(part.owned_vertex(s, i))] =
          static_cast<int>(r.get_u32());
    }
    if (!r.done()) throw WireError("trailing bytes after the values");
  });
}

void SocketTransport::barrier() {
  all_gather_rows(
      std::vector<std::vector<std::uint8_t>>(static_cast<std::size_t>(world_)));
}

}  // namespace deltacol
