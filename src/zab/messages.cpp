#include "zab/messages.h"

namespace zab {

const char* role_name(Role r) {
  switch (r) {
    case Role::kLooking: return "LOOKING";
    case Role::kFollowing: return "FOLLOWING";
    case Role::kLeading: return "LEADING";
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kElection: return "ELECTION";
    case Phase::kDiscovery: return "DISCOVERY";
    case Phase::kSynchronization: return "SYNCHRONIZATION";
    case Phase::kBroadcast: return "BROADCAST";
  }
  return "?";
}

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kVote: return "VOTE";
    case MsgType::kCEpoch: return "CEPOCH";
    case MsgType::kNewEpoch: return "NEWEPOCH";
    case MsgType::kAckEpoch: return "ACKEPOCH";
    case MsgType::kTrunc: return "TRUNC";
    case MsgType::kSnap: return "SNAP";
    case MsgType::kNewLeader: return "NEWLEADER";
    case MsgType::kAckNewLeader: return "ACKNEWLEADER";
    case MsgType::kUpToDate: return "UPTODATE";
    case MsgType::kPropose: return "PROPOSE";
    case MsgType::kAck: return "ACK";
    case MsgType::kCommit: return "COMMIT";
    case MsgType::kPing: return "PING";
    case MsgType::kPong: return "PONG";
    case MsgType::kRequest: return "REQUEST";
    case MsgType::kProposeBatch: return "PROPOSEBATCH";
  }
  return "?";
}

namespace {

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

void encode_body(BufWriter& w, const VoteMsg& m) {
  w.u32(m.proposed_leader);
  w.zxid(m.proposed_zxid);
  w.u32(m.proposed_epoch);
  w.u64(m.round);
  w.u8(static_cast<std::uint8_t>(m.sender_role));
  w.zxid(m.config_zxid);
}
void encode_body(BufWriter& w, const CEpochMsg& m) {
  w.u32(m.accepted_epoch);
  w.u32(m.current_epoch);
  w.zxid(m.last_zxid);
}
void encode_body(BufWriter& w, const NewEpochMsg& m) { w.u32(m.epoch); }
void encode_body(BufWriter& w, const AckEpochMsg& m) {
  w.u32(m.current_epoch);
  w.zxid(m.last_zxid);
}
void encode_body(BufWriter& w, const TruncMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.truncate_to);
}
void encode_body(BufWriter& w, const SnapMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.last_included);
  w.bytes(m.state);
}
void encode_body(BufWriter& w, const NewLeaderMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.history_end);
}
void encode_body(BufWriter& w, const AckNewLeaderMsg& m) { w.u32(m.epoch); }
void encode_body(BufWriter& w, const UpToDateMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.commit_upto);
}
void encode_body(BufWriter& w, const ProposeMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.prev);
  encode_txn(w, m.txn);
}
void encode_body(BufWriter& w, const AckMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.zxid);
}
void encode_body(BufWriter& w, const CommitMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.zxid);
}
void encode_body(BufWriter& w, const PingMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.last_committed);
  w.i64(m.t_sent);
}
void encode_body(BufWriter& w, const PongMsg& m) {
  w.u32(m.epoch);
  w.zxid(m.last_durable);
  w.i64(m.ping_t_sent);
  w.i64(m.t_reply);
}
void encode_body(BufWriter& w, const RequestMsg& m) { w.bytes(m.payload); }
void encode_body(BufWriter& w, const ProposeBatchMsg& m) {
  w.u32(m.epoch);
  w.varint(m.txns.size());
  for (const Txn& t : m.txns) encode_txn(w, t);
}

}  // namespace

MsgType message_type(const Message& m) {
  return std::visit(
      Overload{
          [](const VoteMsg&) { return MsgType::kVote; },
          [](const CEpochMsg&) { return MsgType::kCEpoch; },
          [](const NewEpochMsg&) { return MsgType::kNewEpoch; },
          [](const AckEpochMsg&) { return MsgType::kAckEpoch; },
          [](const TruncMsg&) { return MsgType::kTrunc; },
          [](const SnapMsg&) { return MsgType::kSnap; },
          [](const NewLeaderMsg&) { return MsgType::kNewLeader; },
          [](const AckNewLeaderMsg&) { return MsgType::kAckNewLeader; },
          [](const UpToDateMsg&) { return MsgType::kUpToDate; },
          [](const ProposeMsg&) { return MsgType::kPropose; },
          [](const AckMsg&) { return MsgType::kAck; },
          [](const CommitMsg&) { return MsgType::kCommit; },
          [](const PingMsg&) { return MsgType::kPing; },
          [](const PongMsg&) { return MsgType::kPong; },
          [](const RequestMsg&) { return MsgType::kRequest; },
          [](const ProposeBatchMsg&) { return MsgType::kProposeBatch; },
      },
      m);
}

Bytes encode_message(const Message& m) {
  BufWriter w(64);
  w.u8(static_cast<std::uint8_t>(message_type(m)));
  std::visit([&w](const auto& body) { encode_body(w, body); }, m);
  return std::move(w).take();
}

std::optional<Message> decode_message(std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  const auto tag = static_cast<MsgType>(r.u8());
  Message out;
  switch (tag) {
    case MsgType::kVote: {
      VoteMsg m;
      m.proposed_leader = r.u32();
      m.proposed_zxid = r.zxid();
      m.proposed_epoch = r.u32();
      m.round = r.u64();
      const std::uint8_t role = r.u8();
      if (role > static_cast<std::uint8_t>(Role::kLeading)) return std::nullopt;
      m.sender_role = static_cast<Role>(role);
      m.config_zxid = r.zxid();
      out = m;
      break;
    }
    case MsgType::kCEpoch: {
      CEpochMsg m;
      m.accepted_epoch = r.u32();
      m.current_epoch = r.u32();
      m.last_zxid = r.zxid();
      out = m;
      break;
    }
    case MsgType::kNewEpoch: {
      NewEpochMsg m;
      m.epoch = r.u32();
      out = m;
      break;
    }
    case MsgType::kAckEpoch: {
      AckEpochMsg m;
      m.current_epoch = r.u32();
      m.last_zxid = r.zxid();
      out = m;
      break;
    }
    case MsgType::kTrunc: {
      TruncMsg m;
      m.epoch = r.u32();
      m.truncate_to = r.zxid();
      out = m;
      break;
    }
    case MsgType::kSnap: {
      SnapMsg m;
      m.epoch = r.u32();
      m.last_included = r.zxid();
      m.state = r.bytes();
      out = m;
      break;
    }
    case MsgType::kNewLeader: {
      NewLeaderMsg m;
      m.epoch = r.u32();
      m.history_end = r.zxid();
      out = m;
      break;
    }
    case MsgType::kAckNewLeader: {
      AckNewLeaderMsg m;
      m.epoch = r.u32();
      out = m;
      break;
    }
    case MsgType::kUpToDate: {
      UpToDateMsg m;
      m.epoch = r.u32();
      m.commit_upto = r.zxid();
      out = m;
      break;
    }
    case MsgType::kPropose: {
      ProposeMsg m;
      m.epoch = r.u32();
      m.prev = r.zxid();
      m.txn = decode_txn(r);
      out = m;
      break;
    }
    case MsgType::kAck: {
      AckMsg m;
      m.epoch = r.u32();
      m.zxid = r.zxid();
      out = m;
      break;
    }
    case MsgType::kCommit: {
      CommitMsg m;
      m.epoch = r.u32();
      m.zxid = r.zxid();
      out = m;
      break;
    }
    case MsgType::kPing: {
      PingMsg m;
      m.epoch = r.u32();
      m.last_committed = r.zxid();
      m.t_sent = r.i64();
      out = m;
      break;
    }
    case MsgType::kPong: {
      PongMsg m;
      m.epoch = r.u32();
      m.last_durable = r.zxid();
      m.ping_t_sent = r.i64();
      m.t_reply = r.i64();
      out = m;
      break;
    }
    case MsgType::kRequest: {
      RequestMsg m;
      m.payload = r.bytes();
      out = m;
      break;
    }
    case MsgType::kProposeBatch: {
      ProposeBatchMsg m;
      m.epoch = r.u32();
      const std::uint64_t count = r.varint();
      // Each txn costs at least 9 wire bytes (8 zxid + 1 length varint), so
      // a count beyond the remaining bytes is a corrupt frame — reject it
      // before reserving memory for it.
      if (!r.ok() || count > r.remaining()) return std::nullopt;
      m.txns.reserve(count);
      for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
        m.txns.push_back(decode_txn(r));
      }
      out = std::move(m);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return out;
}

}  // namespace zab
