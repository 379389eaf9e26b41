/// \file
/// Wire-size accounting for the message-passing layer — the data model of
/// CONGEST mode (DESIGN.md §6, "CONGEST accounting").
///
/// `MessageSize<Msg>` answers one question: how many bits would `msg` occupy
/// on a real link? Every message type that flows through a
/// `ParallelSyncEngine` or `Mailbox` must specialize it — the primary
/// template is deliberately left undefined, so an unregistered message type
/// is a compile error, never a silent under-charge. The registered sizes are
/// pinned against a hand-computed table in tests/test_message_size.cpp.
///
/// Sizing convention: payload bits only. Addressing (sender/receiver ids) is
/// carried by the edge itself in the CONGEST model — a node knows which port
/// a message arrived on — so envelope headers are not charged. Fixed-width
/// fields are charged at their declared width; a bool/flag is 1 bit;
/// variable-length payloads charge a 32-bit length prefix plus their
/// elements (the encoding a socket Transport would frame).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace deltacol {

/// Primary template: intentionally undefined. Specialize for every message
/// type the pipelines send (see the file comment for the sizing convention).
template <typename Msg>
struct MessageSize;

/// Bits `msg` occupies on the wire (the quantity the CONGEST B-bit cap and
/// the per-shard byte counters are measured in).
template <typename Msg>
inline std::int64_t message_bits(const Msg& msg) {
  return MessageSize<Msg>::bits(msg);
}

// --- scalar payloads -------------------------------------------------------

template <>
struct MessageSize<bool> {
  static std::int64_t bits(const bool&) { return 1; }
};

template <>
struct MessageSize<std::int32_t> {
  static std::int64_t bits(const std::int32_t&) { return 32; }
};

template <>
struct MessageSize<std::uint32_t> {
  static std::int64_t bits(const std::uint32_t&) { return 32; }
};

template <>
struct MessageSize<std::int64_t> {
  static std::int64_t bits(const std::int64_t&) { return 64; }
};

template <>
struct MessageSize<std::uint64_t> {
  static std::int64_t bits(const std::uint64_t&) { return 64; }
};

// --- composite payloads ----------------------------------------------------

template <typename A, typename B>
struct MessageSize<std::pair<A, B>> {
  static std::int64_t bits(const std::pair<A, B>& p) {
    return message_bits(p.first) + message_bits(p.second);
  }
};

/// Variable-length payload: 32-bit length prefix + the elements.
template <typename T>
struct MessageSize<std::vector<T>> {
  static std::int64_t bits(const std::vector<T>& v) {
    std::int64_t total = 32;
    for (const T& x : v) total += message_bits(x);
    return total;
  }
};

/// Heaviest directed edge in one receiver's inbox, in bits. Each sender's
/// messages must form one contiguous run — true of every inbox the engines
/// hand to receive(): the counting scatter places one sender's messages to
/// one destination consecutively (they sit in one staging buffer or mailbox
/// slot in emission order), and the sort fallback keeps them together. The
/// run's bit sum is that edge's load and the maximum over runs is what the
/// CONGEST charge ceil(load / B) is taken over. A max of maxes over all
/// receivers is order-free, so the engines may fold this per-vertex value
/// in any schedule without perturbing determinism.
template <typename Msg>
inline std::int64_t max_edge_bits_in_inbox(
    std::span<const std::pair<int, Msg>> inbox) {
  std::int64_t best = 0;
  std::int64_t run = 0;
  int prev_sender = -1;
  for (const auto& [from, msg] : inbox) {
    if (from != prev_sender) {
      if (run > best) best = run;
      run = 0;
      prev_sender = from;
    }
    run += message_bits(msg);
  }
  return run > best ? run : best;
}

}  // namespace deltacol
