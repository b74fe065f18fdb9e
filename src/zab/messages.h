// Zab wire messages and their binary codec.
//
// Naming follows the paper (§4): CEPOCH, NEWEPOCH, ACKEPOCH, NEWLEADER,
// ACK(NEWLEADER), PROPOSE, ACK, COMMIT — plus ZooKeeper's realization
// details: Fast-Leader-Election notifications (VOTE), DIFF/TRUNC/SNAP
// synchronization, UPTODATE activation, and PING/PONG heartbeats. The
// paper's PROPOSE travels as PROPOSEBATCH, one frame per leader loop turn;
// PROPOSE itself is the prev-chained frame of the sync replay (DIFF).
//
// Every post-election message carries the sender's epoch so stale messages
// from deposed leaders are rejected by a single check.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "common/buffer.h"
#include "common/txn.h"
#include "common/types.h"
#include "zab/config.h"

namespace zab {

enum class MsgType : std::uint8_t {
  kVote = 1,
  kCEpoch = 2,
  kNewEpoch = 3,
  kAckEpoch = 4,
  kTrunc = 5,
  kSnap = 6,
  kNewLeader = 7,
  kAckNewLeader = 8,
  kUpToDate = 9,
  kPropose = 10,
  kAck = 11,
  kCommit = 12,
  kPing = 13,
  kPong = 14,
  kRequest = 15,
  kProposeBatch = 16,
};

[[nodiscard]] const char* msg_type_name(MsgType t);

/// Fast-Leader-Election notification. The vote (proposed leader + that
/// leader's history position) is totally ordered by
/// (peer_epoch, last_zxid, leader id); see election.cpp.
struct VoteMsg {
  NodeId proposed_leader = kNoNode;
  Zxid proposed_zxid;     // last zxid of the proposed leader's history
  Epoch proposed_epoch = kNoEpoch;  // currentEpoch of the proposed leader
  ElectionEpoch round = 0;
  Role sender_role = Role::kLooking;
  /// Activation zxid of the sender's cluster config. Receivers drop votes
  /// from senders outside their voter set unless the sender's config is
  /// strictly newer — departed members cannot sway elections, while voters
  /// added by a config the receiver has not yet learned still can.
  Zxid config_zxid;
};

/// Follower -> prospective leader: my acceptedEpoch (f.p) and history tail.
struct CEpochMsg {
  Epoch accepted_epoch = kNoEpoch;
  Epoch current_epoch = kNoEpoch;
  Zxid last_zxid;
};

/// Leader -> follower: the new epoch e' (> every acceptedEpoch in a quorum).
struct NewEpochMsg {
  Epoch epoch = kNoEpoch;
};

/// Follower -> leader: accepted e'; reports currentEpoch (f.a) and history
/// tail so the leader can verify it has the most recent history.
struct AckEpochMsg {
  Epoch current_epoch = kNoEpoch;
  Zxid last_zxid;
};

/// Leader -> follower (sync): drop log entries after truncate_to.
struct TruncMsg {
  Epoch epoch = kNoEpoch;
  Zxid truncate_to;
};

/// Leader -> follower (sync): full state transfer.
struct SnapMsg {
  Epoch epoch = kNoEpoch;
  Zxid last_included;
  Bytes state;
};

/// Leader -> follower: end of sync stream for epoch e'. history_end is the
/// last zxid of the stream; a mismatch at the follower means the stream had
/// a hole (lost message) and forces a re-sync.
struct NewLeaderMsg {
  Epoch epoch = kNoEpoch;
  Zxid history_end;
};

/// Follower -> leader: sync stream is durable; I accept you for e'.
struct AckNewLeaderMsg {
  Epoch epoch = kNoEpoch;
};

/// Leader -> follower: a quorum accepted e'; deliver up to commit_upto and
/// start serving.
struct UpToDateMsg {
  Epoch epoch = kNoEpoch;
  Zxid commit_upto;
};

/// Leader -> follower (sync): one history entry replayed during
/// synchronization (covered by ACK-NEWLEADER, not ACKed per entry). `prev`
/// is the zxid preceding this one in the sync stream: the follower only
/// accepts an entry that chains directly onto its log tail, so entries from
/// a stale/holey stream can never create gaps. Live proposals travel as
/// ProposeBatchMsg.
struct ProposeMsg {
  Epoch epoch = kNoEpoch;
  Zxid prev;
  Txn txn;
};

/// Leader -> follower: the live proposals the leader broadcast in one loop
/// turn (one or more), encoded once and fanned out as a single frame. Txns
/// appear in zxid order and are contiguous (each counter is predecessor's
/// + 1); the follower appends the whole run in one pass and replies with ONE
/// cumulative ACK at the last durable zxid.
struct ProposeBatchMsg {
  Epoch epoch = kNoEpoch;
  std::vector<Txn> txns;
};

/// Follower -> leader: txn is on my stable storage.
struct AckMsg {
  Epoch epoch = kNoEpoch;
  Zxid zxid;
};

/// Leader -> follower: txn is committed; deliver in order.
struct CommitMsg {
  Epoch epoch = kNoEpoch;
  Zxid zxid;
};

/// Leader heartbeat; carries the commit watermark so idle followers converge
/// and the leader's clock reading at send time so the PONG can close a
/// clock-offset measurement (see common/clock_sync.h).
struct PingMsg {
  Epoch epoch = kNoEpoch;
  Zxid last_committed;
  TimePoint t_sent = 0;  // leader clock when this PING left
};

/// Follower heartbeat reply; last_durable doubles as a cumulative ACK (the
/// log is written in order, so durability of z implies durability of all
/// zxids <= z) — this heals proposal ACKs lost on the wire. The echoed PING
/// timestamp plus the follower's own clock reading let the leader estimate
/// this follower's clock offset (RTT/2 style).
struct PongMsg {
  Epoch epoch = kNoEpoch;
  Zxid last_durable;
  TimePoint ping_t_sent = 0;  // echo of PingMsg::t_sent
  TimePoint t_reply = 0;      // follower clock when the PONG was generated
};

/// Client operation forwarded to the leader by a follower.
struct RequestMsg {
  Bytes payload;
};

using Message =
    std::variant<VoteMsg, CEpochMsg, NewEpochMsg, AckEpochMsg, TruncMsg,
                 SnapMsg, NewLeaderMsg, AckNewLeaderMsg, UpToDateMsg,
                 ProposeMsg, AckMsg, CommitMsg, PingMsg, PongMsg, RequestMsg,
                 ProposeBatchMsg>;

[[nodiscard]] MsgType message_type(const Message& m);
[[nodiscard]] Bytes encode_message(const Message& m);
/// Returns nullopt on malformed input (short, bad tag, trailing bytes).
[[nodiscard]] std::optional<Message> decode_message(
    std::span<const std::uint8_t> wire);

}  // namespace zab
