// Pins every registered MessageSize specialization against a hand-computed
// table (runtime/message_size.h sizing convention: payload bits only, fixed
// widths as declared, 1-bit flags, 32-bit length prefix on vectors). These
// constants ARE the CONGEST cost model — a silent change here would shift
// every charged round count and every byte counter, so the table is explicit
// numbers, never re-derived from the code under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "mis/luby_sync.h"
#include "runtime/mailbox.h"
#include "runtime/message_size.h"

namespace deltacol {
namespace {

TEST(MessageSize, ScalarTable) {
  EXPECT_EQ(message_bits(true), 1);
  EXPECT_EQ(message_bits(false), 1);
  EXPECT_EQ(message_bits(std::int32_t{0}), 32);
  EXPECT_EQ(message_bits(std::int32_t{-1}), 32);
  EXPECT_EQ(message_bits(std::uint32_t{0xffffffffu}), 32);
  EXPECT_EQ(message_bits(std::int64_t{0}), 64);
  EXPECT_EQ(message_bits(std::uint64_t{0}), 64);
}

TEST(MessageSize, PairSumsItsFields) {
  EXPECT_EQ(message_bits(std::pair<bool, std::uint64_t>{true, 7}), 65);
  EXPECT_EQ(message_bits(std::pair<std::int32_t, std::int32_t>{1, 2}), 64);
  EXPECT_EQ(
      message_bits(std::pair<std::int64_t, std::pair<bool, bool>>{3, {0, 1}}),
      66);
}

TEST(MessageSize, VectorChargesPrefixPlusElements) {
  EXPECT_EQ(message_bits(std::vector<std::int32_t>{}), 32);  // prefix only
  EXPECT_EQ(message_bits(std::vector<std::int32_t>{1, 2, 3}), 32 + 3 * 32);
  EXPECT_EQ(message_bits(std::vector<bool>{true, false}), 32 + 2);
  // Nested: outer prefix + per-element (inner prefix + payload).
  EXPECT_EQ(message_bits(std::vector<std::vector<std::int64_t>>{{1}, {}}),
            32 + (32 + 64) + 32);
}

TEST(MessageSize, LubyMessageIsSixtyFiveBits) {
  // The literal message-passing MIS sends {1-bit join flag, 64-bit
  // priority}; the constant is exported so tests and benches can factor
  // charged totals without re-deriving the wire format.
  EXPECT_EQ(kLubyMessageBits, 65);
}

TEST(MessageSize, MaxEdgeBitsInInboxTakesHeaviestSenderRun) {
  // Sorted-by-sender inbox: per-sender runs are contiguous, a run's bit sum
  // is that directed edge's load, and the max over runs is the value the
  // CONGEST charge divides by B.
  using Inbox = std::vector<std::pair<int, std::uint64_t>>;
  const auto heaviest = [](const Inbox& inbox) {
    return max_edge_bits_in_inbox<std::uint64_t>(inbox);
  };
  EXPECT_EQ(heaviest(Inbox{}), 0);
  EXPECT_EQ(heaviest(Inbox{{3, 1}}), 64);
  // Sender 1 sent one message (64 bits), sender 4 sent three (192 bits).
  EXPECT_EQ(heaviest(Inbox{{1, 9}, {4, 1}, {4, 2}, {4, 3}}), 192);
  // The heaviest run may be first: order of runs must not matter.
  EXPECT_EQ(heaviest(Inbox{{0, 1}, {0, 2}, {7, 5}}), 128);
}

TEST(MessageSize, MailboxTalliesBitsAtPostTime) {
  // Mailbox<Msg> accumulates MessageSize bits per (src, dst) slot as
  // envelopes are posted; clear() zeroes the tallies with the slots.
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<std::uint64_t> mailbox(&part);
  mailbox.post(0, 1, 2, 11);  // within shard 0: slot (0, 0)
  mailbox.post(0, 1, 7, 22);  // crosses to shard 1: slot (0, 1)
  mailbox.post(1, 8, 9, 33);  // within shard 1: slot (1, 1)
  mailbox.post(1, 8, 9, 44);
  const auto& bits = mailbox.slot_bits();
  ASSERT_EQ(bits.size(), 4u);
  EXPECT_EQ(bits[0], 64);       // (0, 0)
  EXPECT_EQ(bits[1], 64);       // (0, 1)
  EXPECT_EQ(bits[2], 0);        // (1, 0)
  EXPECT_EQ(bits[3], 2 * 64);   // (1, 1)
  mailbox.clear();
  for (std::int64_t b : mailbox.slot_bits()) EXPECT_EQ(b, 0);
}

}  // namespace
}  // namespace deltacol
