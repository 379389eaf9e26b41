/// \file
/// Wire serialization for the message-passing layer — the byte-level twin of
/// the CONGEST sizing traits (runtime/message_size.h).
///
/// `WireCodec<Msg>` answers the question MessageSize only prices: what bytes
/// does `msg` occupy on a real link? The two families follow the same
/// convention field by field, so bytes-on-wire and bits-charged stay provably
/// proportional:
///
///   | field             | MessageSize charge | WireCodec encoding          |
///   |-------------------|--------------------|-----------------------------|
///   | bool              | 1 bit              | 1 byte (0/1)                |
///   | i32 / u32         | 32 bits            | 4 bytes, little-endian      |
///   | i64 / u64         | 64 bits            | 8 bytes, little-endian      |
///   | pair<A, B>        | concat             | concat                      |
///   | vector<T>         | 32-bit prefix + T* | u32 prefix + elements       |
///
/// i.e. the encoded payload of any registered message is exactly the sum of
/// ceil(field_bits / 8) over its fields (sub-byte fields round up to whole
/// bytes — the only place wire bytes exceed charged bits). The fuzz suite
/// pins this equality for every registered type (tests/test_fuzz.cpp).
///
/// Like MessageSize, the primary template is deliberately left undefined:
/// an unregistered message type is a compile error, never a silently wrong
/// byte stream. Algorithm translation units that define private message
/// structs specialize both traits side by side (see mis/luby_sync.cpp).
///
/// Decoding is strict: a `WireReader` that runs out of bytes, a bool byte
/// outside {0, 1}, or a vector length that cannot fit the remaining bytes
/// throws `WireError` — a torn or corrupted stream never decodes to a
/// plausible-looking message.
///
/// A distributed round ships mailbox slots with this codec: the
/// owner-routed exchange (`Mailbox::encode_owned_row` →
/// `Transport::exchange_owned`) serializes the off-diagonal slots of a
/// shard's row with `encode_slot` — once, into an exactly sized buffer the
/// mailbox reuses across rounds — and the receiver's `Mailbox::fill`
/// replays them with `decode_slot`, straight from the transport's receive
/// buffer into the slot's reused envelope vector.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace deltacol {

/// A serialized payload (one mailbox slot, one frame body, ...).
using WireBuf = std::vector<std::uint8_t>;

/// Malformed bytes on the wire: truncated payloads, torn frames, impossible
/// lengths. Deliberately not a ContractViolation — the peer (or the network)
/// is at fault, not this process's caller.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian fields to a growing buffer. Every
/// field is one bounds check and one bulk store; reserve() the exact size
/// first and no append reallocates.
class WireWriter {
 public:
  WireWriter() = default;
  /// Writes into `buf`'s storage: its contents are overwritten, its
  /// capacity is kept — take() hands the buffer back for the next reuse.
  explicit WireWriter(WireBuf buf) : buf_(std::move(buf)) {}

  /// Makes room for `n` more bytes, so the next `n` bytes of appends
  /// neither grow nor zero-fill the buffer.
  void reserve(std::size_t n) {
    if (buf_.size() - len_ < n) buf_.resize(len_ + n);
  }

  void put_u8(std::uint8_t x) { put_bytes({&x, 1}); }

  void put_u32(std::uint32_t x) {
    const std::uint8_t le[4] = {
        static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(x >> 8),
        static_cast<std::uint8_t>(x >> 16), static_cast<std::uint8_t>(x >> 24)};
    put_bytes(le);
  }

  void put_u64(std::uint64_t x) {
    const std::uint8_t le[8] = {
        static_cast<std::uint8_t>(x),       static_cast<std::uint8_t>(x >> 8),
        static_cast<std::uint8_t>(x >> 16), static_cast<std::uint8_t>(x >> 24),
        static_cast<std::uint8_t>(x >> 32), static_cast<std::uint8_t>(x >> 40),
        static_cast<std::uint8_t>(x >> 48), static_cast<std::uint8_t>(x >> 56)};
    put_bytes(le);
  }

  void put_bytes(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    if (buf_.size() - len_ < bytes.size()) [[unlikely]] {
      buf_.resize(std::max(len_ + bytes.size(), 2 * buf_.size()));
    }
    std::memcpy(buf_.data() + len_, bytes.data(), bytes.size());
    len_ += bytes.size();
  }

  std::size_t size() const { return len_; }
  WireBuf take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  WireBuf buf_;          // bytes [0, len_) are written; the rest is room
  std::size_t len_ = 0;
};

/// Consumes fixed-width little-endian fields from a buffer; throws WireError
/// on underrun. Non-owning — the buffer must outlive the reader.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    need(4);
    const std::uint32_t x = static_cast<std::uint32_t>(data_[pos_]) |
                            static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                            static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                            static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return x;
  }

  std::uint64_t get_u64() {
    const std::uint64_t lo = get_u32();
    const std::uint64_t hi = get_u32();
    return lo | hi << 32;
  }

  /// Consumes the next `n` bytes and returns them in place (no copy).
  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) [[unlikely]] truncated(n, size_ - pos_);
  }
  [[noreturn]] static void truncated(std::size_t n, std::size_t have) {
    throw WireError("wire payload truncated: need " + std::to_string(n) +
                    " byte(s), have " + std::to_string(have));
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Primary template: intentionally undefined — specialize for every message
/// type that crosses a distributed Transport (the mirror of MessageSize's
/// registration discipline; see the file comment for the convention). A
/// specialization has `encode`, `decode`, and `bytes(x)` — the exact length
/// `encode(x)` appends, which lets a slot be encoded into an exactly
/// reserved buffer.
template <typename Msg>
struct WireCodec;

// --- scalar payloads -------------------------------------------------------

template <>
struct WireCodec<bool> {
  static std::size_t bytes(const bool&) { return 1; }
  static void encode(const bool& x, WireWriter& w) { w.put_u8(x ? 1 : 0); }
  static bool decode(WireReader& r) {
    const std::uint8_t b = r.get_u8();
    if (b > 1) throw WireError("wire bool byte out of range");
    return b == 1;
  }
};

template <>
struct WireCodec<std::uint32_t> {
  static std::size_t bytes(const std::uint32_t&) { return 4; }
  static void encode(const std::uint32_t& x, WireWriter& w) { w.put_u32(x); }
  static std::uint32_t decode(WireReader& r) { return r.get_u32(); }
};

template <>
struct WireCodec<std::int32_t> {
  static std::size_t bytes(const std::int32_t&) { return 4; }
  static void encode(const std::int32_t& x, WireWriter& w) {
    w.put_u32(static_cast<std::uint32_t>(x));
  }
  static std::int32_t decode(WireReader& r) {
    return static_cast<std::int32_t>(r.get_u32());
  }
};

template <>
struct WireCodec<std::uint64_t> {
  static std::size_t bytes(const std::uint64_t&) { return 8; }
  static void encode(const std::uint64_t& x, WireWriter& w) { w.put_u64(x); }
  static std::uint64_t decode(WireReader& r) { return r.get_u64(); }
};

template <>
struct WireCodec<std::int64_t> {
  static std::size_t bytes(const std::int64_t&) { return 8; }
  static void encode(const std::int64_t& x, WireWriter& w) {
    w.put_u64(static_cast<std::uint64_t>(x));
  }
  static std::int64_t decode(WireReader& r) {
    return static_cast<std::int64_t>(r.get_u64());
  }
};

// --- composite payloads ----------------------------------------------------

template <typename A, typename B>
struct WireCodec<std::pair<A, B>> {
  static std::size_t bytes(const std::pair<A, B>& p) {
    return WireCodec<A>::bytes(p.first) + WireCodec<B>::bytes(p.second);
  }
  static void encode(const std::pair<A, B>& p, WireWriter& w) {
    WireCodec<A>::encode(p.first, w);
    WireCodec<B>::encode(p.second, w);
  }
  static std::pair<A, B> decode(WireReader& r) {
    // Sequenced explicitly: argument evaluation order is unspecified.
    A a = WireCodec<A>::decode(r);
    B b = WireCodec<B>::decode(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename T>
struct WireCodec<std::vector<T>> {
  static std::size_t bytes(const std::vector<T>& v) {
    std::size_t total = 4;
    for (const T& x : v) total += WireCodec<T>::bytes(x);
    return total;
  }
  static void encode(const std::vector<T>& v, WireWriter& w) {
    w.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) WireCodec<T>::encode(x, w);
  }
  static std::vector<T> decode(WireReader& r) {
    const std::uint32_t count = r.get_u32();
    // Every element costs at least one byte, so a count the remaining bytes
    // cannot cover is corruption — reject before allocating.
    if (count > r.remaining()) {
      throw WireError("wire vector length exceeds remaining payload");
    }
    std::vector<T> v;
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      v.push_back(WireCodec<T>::decode(r));
    }
    return v;
  }
};

// --- mailbox slot encoding -------------------------------------------------
//
// One (source-shard, destination-shard) mailbox slot on the wire:
//
//   u32 envelope count, then per envelope: u32 to, u32 from, payload.
//
// The 8 addressing bytes per envelope and the 4-byte count are framing
// overhead on top of the MessageSize-priced payload (in the CONGEST model
// addressing is carried by the port a message arrives on, so it is not
// charged — see message_size.h). Envelope order is preserved exactly: the
// decoded slot replays the sender's post order, which is what makes the
// shard-major merge rule survive serialization (DESIGN.md §6).

/// Per-envelope wire overhead (to + from) in bytes, and the per-slot count
/// prefix — the constants the E17 bench checks the physical byte ratio
/// against.
inline constexpr std::int64_t kWireEnvelopeOverheadBytes = 8;
inline constexpr std::int64_t kWireSlotPrefixBytes = 4;

/// Serializes one mailbox slot into `out`, replacing its contents and
/// keeping its capacity: the exact length is summed first and reserved
/// once, so no append reallocates. `Env` is any envelope shape with `to`,
/// `from` (vertex ids) and `msg` (a registered WireCodec type) — i.e.
/// Mailbox<Msg>::Envelope.
template <typename Msg, typename Env>
void encode_slot(const std::vector<Env>& slot, WireBuf& out) {
  std::size_t bytes =
      static_cast<std::size_t>(kWireSlotPrefixBytes) +
      slot.size() * static_cast<std::size_t>(kWireEnvelopeOverheadBytes);
  for (const Env& e : slot) bytes += WireCodec<Msg>::bytes(e.msg);
  WireWriter w(std::move(out));
  w.reserve(bytes);
  w.put_u32(static_cast<std::uint32_t>(slot.size()));
  for (const Env& e : slot) {
    w.put_u32(static_cast<std::uint32_t>(e.to));
    w.put_u32(static_cast<std::uint32_t>(e.from));
    WireCodec<Msg>::encode(e.msg, w);
  }
  out = w.take();
}

/// Decodes one mailbox slot (the exact inverse of encode_slot) into `out`
/// in one pass: `out` is cleared (its capacity is reused) and every decoded
/// envelope is handed to `visit` as soon as it lands, so the caller checks
/// and tallies it without a second walk. Throws WireError on truncation,
/// trailing bytes, or malformed payloads; a count the bytes cannot hold is
/// rejected before anything is reserved. On a throw `out` holds a partial
/// slot the caller must discard.
template <typename Msg, typename Env, typename Visit>
void decode_slot(std::span<const std::uint8_t> bytes, std::vector<Env>& out,
                 Visit&& visit) {
  WireReader r(bytes);
  const std::uint32_t count = r.get_u32();
  // Each envelope costs at least its 8 addressing bytes — reject impossible
  // counts before allocating.
  if (count > r.remaining() / kWireEnvelopeOverheadBytes) {
    throw WireError("wire slot envelope count " + std::to_string(count) +
                    " exceeds what its " + std::to_string(r.remaining()) +
                    " remaining bytes can hold");
  }
  out.clear();
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const int to = static_cast<int>(r.get_u32());
    const int from = static_cast<int>(r.get_u32());
    visit(out.emplace_back(Env{to, from, WireCodec<Msg>::decode(r)}));
  }
  if (!r.done()) throw WireError("trailing bytes after mailbox slot");
}

}  // namespace deltacol
