// Codec tests for Zab and Paxos wire messages: round-trips for every type,
// plus robustness against truncated, trailing, and random-garbage input
// (a malformed message must be rejected, never misparsed).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "paxos/messages.h"
#include "zab/messages.h"

namespace zab {
namespace {

template <typename T>
T roundtrip(const T& in) {
  const Bytes wire = encode_message(Message{in});
  auto out = decode_message(wire);
  EXPECT_TRUE(out.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*out));
  return std::get<T>(*out);
}

TEST(Messages, VoteRoundTrip) {
  VoteMsg m{3, Zxid{4, 17}, 4, 99, Role::kLeading, Zxid{2, 5}};
  const VoteMsg r = roundtrip(m);
  EXPECT_EQ(r.proposed_leader, 3u);
  EXPECT_EQ(r.proposed_zxid, (Zxid{4, 17}));
  EXPECT_EQ(r.proposed_epoch, 4u);
  EXPECT_EQ(r.round, 99u);
  EXPECT_EQ(r.sender_role, Role::kLeading);
  EXPECT_EQ(r.config_zxid, (Zxid{2, 5}));
}

TEST(Messages, DiscoveryPhaseRoundTrips) {
  {
    const auto r = roundtrip(CEpochMsg{5, 4, Zxid{4, 100}});
    EXPECT_EQ(r.accepted_epoch, 5u);
    EXPECT_EQ(r.current_epoch, 4u);
    EXPECT_EQ(r.last_zxid, (Zxid{4, 100}));
  }
  EXPECT_EQ(roundtrip(NewEpochMsg{6}).epoch, 6u);
  {
    const auto r = roundtrip(AckEpochMsg{4, Zxid{4, 50}});
    EXPECT_EQ(r.current_epoch, 4u);
    EXPECT_EQ(r.last_zxid, (Zxid{4, 50}));
  }
}

TEST(Messages, SyncPhaseRoundTrips) {
  {
    const auto r = roundtrip(TruncMsg{6, Zxid{4, 42}});
    EXPECT_EQ(r.truncate_to, (Zxid{4, 42}));
  }
  {
    const auto r = roundtrip(SnapMsg{6, Zxid{5, 10}, to_bytes("full-state")});
    EXPECT_EQ(r.last_included, (Zxid{5, 10}));
    EXPECT_EQ(r.state, to_bytes("full-state"));
  }
  {
    const auto r = roundtrip(NewLeaderMsg{6, Zxid{5, 10}});
    EXPECT_EQ(r.epoch, 6u);
    EXPECT_EQ(r.history_end, (Zxid{5, 10}));
  }
  {
    // PROPOSE is the sync-replay frame: each entry names its predecessor.
    const auto r =
        roundtrip(ProposeMsg{6, Zxid{5, 9}, Txn{Zxid{5, 10}, to_bytes("op")}});
    EXPECT_EQ(r.epoch, 6u);
    EXPECT_EQ(r.prev, (Zxid{5, 9}));
    EXPECT_EQ(r.txn.zxid, (Zxid{5, 10}));
    EXPECT_EQ(r.txn.data, to_bytes("op"));
  }
  EXPECT_EQ(roundtrip(AckNewLeaderMsg{6}).epoch, 6u);
  {
    const auto r = roundtrip(UpToDateMsg{6, Zxid{5, 10}});
    EXPECT_EQ(r.commit_upto, (Zxid{5, 10}));
  }
}

TEST(Messages, BroadcastPhaseRoundTrips) {
  EXPECT_EQ(roundtrip(AckMsg{6, Zxid{6, 1}}).zxid, (Zxid{6, 1}));
  EXPECT_EQ(roundtrip(CommitMsg{6, Zxid{6, 1}}).zxid, (Zxid{6, 1}));
  {
    // Heartbeats carry the clock-sync timestamps (zero when unused).
    const auto p = roundtrip(PingMsg{6, Zxid{6, 5}, 123456789});
    EXPECT_EQ(p.last_committed, (Zxid{6, 5}));
    EXPECT_EQ(p.t_sent, 123456789);
    EXPECT_EQ(roundtrip(PingMsg{6, Zxid{6, 5}}).t_sent, 0);
  }
  {
    const auto p = roundtrip(PongMsg{6, Zxid{6, 4}, 123456789, 123500000});
    EXPECT_EQ(p.last_durable, (Zxid{6, 4}));
    EXPECT_EQ(p.ping_t_sent, 123456789);
    EXPECT_EQ(p.t_reply, 123500000);
    EXPECT_EQ(roundtrip(PongMsg{6, Zxid{6, 4}}).ping_t_sent, 0);
  }
  EXPECT_EQ(roundtrip(RequestMsg{to_bytes("client-op")}).payload,
            to_bytes("client-op"));
}

TEST(Messages, ProposeBatchRoundTrips) {
  {
    // Empty batch (the leader never sends one, but the codec is total).
    const auto r = roundtrip(ProposeBatchMsg{7, {}});
    EXPECT_EQ(r.epoch, 7u);
    EXPECT_TRUE(r.txns.empty());
  }
  {
    const auto r =
        roundtrip(ProposeBatchMsg{7, {Txn{Zxid{7, 1}, to_bytes("solo")}}});
    ASSERT_EQ(r.txns.size(), 1u);
    EXPECT_EQ(r.txns[0].zxid, (Zxid{7, 1}));
    EXPECT_EQ(r.txns[0].data, to_bytes("solo"));
  }
  {
    ProposeBatchMsg m{7, {}};
    for (std::uint32_t c = 1; c <= 100; ++c) {
      m.txns.push_back(Txn{Zxid{7, c}, to_bytes("op" + std::to_string(c))});
    }
    const auto r = roundtrip(m);
    ASSERT_EQ(r.txns.size(), 100u);
    EXPECT_EQ(r.txns[0].data, to_bytes("op1"));
    EXPECT_EQ(r.txns[99].zxid, (Zxid{7, 100}));
    EXPECT_EQ(r.txns[99].data, to_bytes("op100"));
    // Empty payloads survive inside a batch too.
    m.txns[50].data.clear();
    EXPECT_EQ(roundtrip(m).txns[50].data, Bytes{});
  }
}

TEST(Messages, ProposeBatchCorruptFramesRejected) {
  ProposeBatchMsg m{7, {Txn{Zxid{7, 1}, to_bytes("aa")},
                        Txn{Zxid{7, 2}, to_bytes("bb")}}};
  const Bytes wire = encode_message(Message{m});
  // Truncation at every prefix length.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        decode_message(std::span<const std::uint8_t>(wire.data(), len))
            .has_value())
        << "len " << len;
  }
  // Trailing garbage.
  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_FALSE(decode_message(trailing).has_value());
  // A count far beyond the remaining bytes must be rejected up front
  // (never trusted for a reservation). Frame: tag, epoch u32, varint count.
  Bytes huge{static_cast<std::uint8_t>(MsgType::kProposeBatch), 7, 0, 0, 0,
             0xff, 0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(decode_message(huge).has_value());
}

TEST(Messages, EmptyPayloadsAllowed) {
  EXPECT_EQ(roundtrip(RequestMsg{{}}).payload, Bytes{});
  const auto r = roundtrip(SnapMsg{1, Zxid::zero(), {}});
  EXPECT_EQ(r.state, Bytes{});
}

TEST(Messages, TruncatedInputRejectedAtEveryLength) {
  const Message samples[] = {
      Message{VoteMsg{1, Zxid{1, 1}, 1, 1, Role::kLooking, Zxid{}}},
      Message{ProposeMsg{2, Zxid{2, 2}, Txn{Zxid{2, 3}, to_bytes("xy")}}},
      Message{SnapMsg{1, Zxid{1, 1}, to_bytes("abcdef")}},
  };
  for (const auto& m : samples) {
    const Bytes wire = encode_message(m);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      auto out =
          decode_message(std::span<const std::uint8_t>(wire.data(), len));
      EXPECT_FALSE(out.has_value()) << "len " << len;
    }
  }
}

TEST(Messages, TrailingBytesRejected) {
  Bytes wire = encode_message(Message{NewEpochMsg{3}});
  wire.push_back(0x00);
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(Messages, BadTagAndBadRoleRejected) {
  Bytes wire{0xee, 0x01, 0x02};
  EXPECT_FALSE(decode_message(wire).has_value());

  Bytes vote = encode_message(
      Message{VoteMsg{1, Zxid{1, 1}, 1, 1, Role::kLooking, Zxid{}}});
  // The role byte sits just before the trailing 8-byte config_zxid.
  vote[vote.size() - 9] = 0x17;  // invalid role enum
  EXPECT_FALSE(decode_message(vote).has_value());
}

TEST(Messages, RandomGarbageNeverCrashes) {
  Rng rng(20260706);
  for (int trial = 0; trial < 20000; ++trial) {
    Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode_message(junk);  // must not crash / UB (run under ASan-ish)
  }
}

TEST(Messages, TypeNamesCoverAllTags) {
  EXPECT_STREQ(msg_type_name(MsgType::kVote), "VOTE");
  EXPECT_STREQ(msg_type_name(MsgType::kCEpoch), "CEPOCH");
  EXPECT_STREQ(msg_type_name(MsgType::kUpToDate), "UPTODATE");
  EXPECT_STREQ(msg_type_name(MsgType::kRequest), "REQUEST");
  EXPECT_STREQ(msg_type_name(MsgType::kProposeBatch), "PROPOSEBATCH");
  EXPECT_STREQ(role_name(Role::kLeading), "LEADING");
  EXPECT_STREQ(phase_name(Phase::kSynchronization), "SYNCHRONIZATION");
}

// --- Paxos codec ---------------------------------------------------------------

TEST(PaxosMessages, BallotPacking) {
  const paxos::Ballot b = paxos::make_ballot(7, 3);
  EXPECT_EQ(paxos::ballot_round(b), 7u);
  EXPECT_EQ(paxos::ballot_node(b), 3u);
  EXPECT_GT(paxos::make_ballot(8, 1), paxos::make_ballot(7, 9));
  EXPECT_GT(paxos::make_ballot(7, 2), paxos::make_ballot(7, 1));
}

TEST(PaxosMessages, RoundTrips) {
  using namespace paxos;
  {
    const Bytes w = encode_paxos_message(PrepareMsg{make_ballot(2, 1), 5});
    auto m = decode_paxos_message(w);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<PrepareMsg>(*m).from_slot, 5u);
  }
  {
    PromiseMsg p;
    p.ballot = make_ballot(2, 1);
    p.from_slot = 3;
    p.accepted.push_back(PromiseEntry{4, make_ballot(1, 2), to_bytes("v4")});
    p.accepted.push_back(PromiseEntry{6, make_ballot(1, 3), to_bytes("v6")});
    auto m = decode_paxos_message(encode_paxos_message(p));
    ASSERT_TRUE(m.has_value());
    const auto& r = std::get<PromiseMsg>(*m);
    ASSERT_EQ(r.accepted.size(), 2u);
    EXPECT_EQ(r.accepted[1].slot, 6u);
    EXPECT_EQ(r.accepted[1].value, to_bytes("v6"));
  }
  {
    auto m = decode_paxos_message(
        encode_paxos_message(AcceptMsg{make_ballot(3, 2), 9, to_bytes("val")}));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<AcceptMsg>(*m).slot, 9u);
  }
  {
    auto m = decode_paxos_message(
        encode_paxos_message(ChosenMsg{11, to_bytes("ch")}));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<ChosenMsg>(*m).value, to_bytes("ch"));
  }
}

TEST(PaxosMessages, GarbageRejected) {
  Rng rng(99);
  for (int trial = 0; trial < 10000; ++trial) {
    Bytes junk(rng.below(48));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)paxos::decode_paxos_message(junk);
  }
  Bytes bad{0x7f};
  EXPECT_FALSE(paxos::decode_paxos_message(bad).has_value());
}

}  // namespace
}  // namespace zab
