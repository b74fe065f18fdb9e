#include "pb/client_protocol.h"

namespace zab::pb {

namespace {
constexpr std::uint8_t kReqTag = 0x43;      // 'C'
constexpr std::uint8_t kRespTag = 0x63;     // 'c'
constexpr std::uint8_t kWatchTag = 0x57;    // 'W'
constexpr std::uint8_t kConnectTag = 0x48;  // 'H' (handshake)
constexpr std::uint8_t kConnectAckTag = 0x68;  // 'h'
constexpr std::uint8_t kPingTag = 0x50;     // 'P'
constexpr std::uint8_t kPongTag = 0x70;     // 'p'

void put_header(BufWriter& w, std::uint8_t tag) {
  w.u8(kWireMagic);
  w.u8(kWireVersion);
  w.u8(tag);
}

/// Consumes the 3-byte header, expecting `tag`. A frame starting with one
/// of the retired v1 tag bytes gets a deliberate, actionable error: v1
/// frames had no magic, so their first byte lands where v2 keeps the magic.
Status check_header(BufReader& r, std::uint8_t tag, const char* what) {
  const std::uint8_t b0 = r.u8();
  if (b0 == kReqTag || b0 == kRespTag || b0 == kWatchTag) {
    return Status::corruption(
        "unversioned v1 client frame; this server speaks protocol v3 "
        "(sessions + fenced reads) — upgrade the client library");
  }
  if (b0 != kWireMagic) {
    return Status::corruption(std::string("not a client frame (bad magic), "
                                          "expected ") +
                              what);
  }
  if (const auto v = r.u8(); v != kWireVersion) {
    return Status::corruption("unsupported client protocol version " +
                              std::to_string(int{v}) + " (this server: v" +
                              std::to_string(int{kWireVersion}) + ")");
  }
  if (r.u8() != tag) {
    return Status::corruption(std::string("unexpected frame, wanted ") + what);
  }
  return Status::ok();
}

void encode_stat(BufWriter& w, const Stat& s) {
  w.zxid(s.czxid);
  w.zxid(s.mzxid);
  w.u32(s.version);
  w.u32(s.cversion);
  w.u32(s.num_children);
  w.u64(s.data_length);
  w.u64(s.ephemeral_owner);
}

Stat decode_stat(BufReader& r) {
  Stat s;
  s.czxid = r.zxid();
  s.mzxid = r.zxid();
  s.version = r.u32();
  s.cversion = r.u32();
  s.num_children = r.u32();
  s.data_length = r.u64();
  s.ephemeral_owner = r.u64();
  return s;
}

}  // namespace

FrameType classify_frame(std::span<const std::uint8_t> wire) {
  if (wire.size() < 3 || wire[0] != kWireMagic || wire[1] != kWireVersion) {
    return FrameType::kInvalid;
  }
  switch (wire[2]) {
    case kReqTag: return FrameType::kRequest;
    case kRespTag: return FrameType::kResponse;
    case kWatchTag: return FrameType::kWatchEvent;
    case kConnectTag: return FrameType::kConnect;
    case kConnectAckTag: return FrameType::kConnectAck;
    case kPingTag: return FrameType::kPing;
    case kPongTag: return FrameType::kPong;
    default: return FrameType::kInvalid;
  }
}

Bytes encode_client_request(const ClientRequest& r) {
  BufWriter w(64);
  put_header(w, kReqTag);
  w.u64(r.xid);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.str(r.path);
  w.varint(r.ops.size());
  for (const Op& op : r.ops) {
    w.u8(static_cast<std::uint8_t>(op.type));
    w.str(op.path);
    w.bytes(op.data);
    w.i64(op.expected_version);
    w.boolean(op.sequential);
    w.boolean(op.ephemeral);
  }
  w.boolean(r.watch);
  w.u8(static_cast<std::uint8_t>(r.consistency));
  w.u64(r.fence_zxid);
  return std::move(w).take();
}

Result<ClientRequest> decode_client_request(
    std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kReqTag, "ClientRequest"); !st.is_ok()) {
    return st;
  }
  ClientRequest out;
  out.xid = r.u64();
  const auto kind = r.u8();
  if (kind < 1 || kind > 13 || kind == 7 || kind == 8 || kind == 10) {
    return Status::corruption("bad request kind");
  }
  out.kind = static_cast<ClientOpKind>(kind);
  out.path = r.str();
  const auto n = r.varint();
  if (n > 1024) return Status::corruption("too many ops");
  for (std::uint64_t i = 0; i < n; ++i) {
    Op op;
    const auto type = r.u8();
    // Writes carry tree ops (create/delete/set); a kReconfig request
    // carries exactly one OpType::kReconfig op whose data holds the
    // ReconfigRequest.
    if ((type < 1 || type > 3) &&
        type != static_cast<std::uint8_t>(OpType::kReconfig)) {
      return Status::corruption("bad op type");
    }
    op.type = static_cast<OpType>(type);
    op.path = r.str();
    op.data = r.bytes();
    op.expected_version = r.i64();
    op.sequential = r.boolean();
    op.ephemeral = r.boolean();
    out.ops.push_back(std::move(op));
  }
  out.watch = r.boolean();
  const auto tier = r.u8();
  if (tier > static_cast<std::uint8_t>(ReadConsistency::kLinearizable)) {
    return Status::corruption("bad read consistency tier");
  }
  out.consistency = static_cast<ReadConsistency>(tier);
  out.fence_zxid = r.u64();
  if (!r.ok() || !r.at_end()) return Status::corruption("short request");
  return out;
}

Bytes encode_client_response(const ClientResponse& r) {
  BufWriter w(64);
  put_header(w, kRespTag);
  w.u64(r.xid);
  w.u8(static_cast<std::uint8_t>(r.code));
  w.bytes(r.data);
  w.varint(r.paths.size());
  for (const auto& p : r.paths) w.str(p);
  encode_stat(w, r.stat);
  w.boolean(r.exists);
  w.i64(r.failed_index);
  w.zxid(r.zxid);
  w.boolean(r.is_leader);
  return std::move(w).take();
}

Result<ClientResponse> decode_client_response(
    std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kRespTag, "ClientResponse"); !st.is_ok()) {
    return st;
  }
  ClientResponse out;
  out.xid = r.u64();
  out.code = static_cast<Code>(r.u8());
  out.data = r.bytes();
  const auto n = r.varint();
  if (n > 100000) return Status::corruption("too many paths");
  for (std::uint64_t i = 0; i < n; ++i) out.paths.push_back(r.str());
  out.stat = decode_stat(r);
  out.exists = r.boolean();
  out.failed_index = static_cast<std::int32_t>(r.i64());
  out.zxid = r.zxid();
  out.is_leader = r.boolean();
  if (!r.ok() || !r.at_end()) return Status::corruption("short response");
  return out;
}

Bytes encode_watch_event(const WatchEventMsg& w) {
  BufWriter out(w.path.size() + 8);
  put_header(out, kWatchTag);
  out.u8(static_cast<std::uint8_t>(w.event));
  out.str(w.path);
  return std::move(out).take();
}

Result<WatchEventMsg> decode_watch_event(std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kWatchTag, "WatchEvent"); !st.is_ok()) {
    return st;
  }
  WatchEventMsg out;
  const auto ev = r.u8();
  if (ev > static_cast<std::uint8_t>(WatchEvent::kChildrenChanged)) {
    return Status::corruption("bad watch event");
  }
  out.event = static_cast<WatchEvent>(ev);
  out.path = r.str();
  if (!r.ok() || !r.at_end()) return Status::corruption("short WatchEvent");
  return out;
}

Bytes encode_connect_request(const ConnectRequest& r) {
  BufWriter w(32);
  put_header(w, kConnectTag);
  w.u64(r.session_id);
  w.u32(r.timeout_ms);
  w.u64(r.last_zxid);
  return std::move(w).take();
}

Result<ConnectRequest> decode_connect_request(
    std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kConnectTag, "ConnectRequest");
      !st.is_ok()) {
    return st;
  }
  ConnectRequest out;
  out.session_id = r.u64();
  out.timeout_ms = r.u32();
  out.last_zxid = r.u64();
  if (!r.ok() || !r.at_end()) return Status::corruption("short ConnectRequest");
  return out;
}

Bytes encode_connect_response(const ConnectResponse& r) {
  BufWriter w(32);
  put_header(w, kConnectAckTag);
  w.u8(static_cast<std::uint8_t>(r.code));
  w.u64(r.session_id);
  w.u32(r.timeout_ms);
  w.boolean(r.reattached);
  w.u64(r.last_zxid);
  return std::move(w).take();
}

Result<ConnectResponse> decode_connect_response(
    std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kConnectAckTag, "ConnectResponse");
      !st.is_ok()) {
    return st;
  }
  ConnectResponse out;
  out.code = static_cast<Code>(r.u8());
  out.session_id = r.u64();
  out.timeout_ms = r.u32();
  out.reattached = r.boolean();
  out.last_zxid = r.u64();
  if (!r.ok() || !r.at_end()) {
    return Status::corruption("short ConnectResponse");
  }
  return out;
}

Bytes encode_ping_request(const PingRequest& r) {
  BufWriter w(16);
  put_header(w, kPingTag);
  w.u64(r.session_id);
  return std::move(w).take();
}

Result<PingRequest> decode_ping_request(std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kPingTag, "PingRequest"); !st.is_ok()) {
    return st;
  }
  PingRequest out;
  out.session_id = r.u64();
  if (!r.ok() || !r.at_end()) return Status::corruption("short PingRequest");
  return out;
}

Bytes encode_ping_response(const PingResponse& r) {
  BufWriter w(16);
  put_header(w, kPongTag);
  w.u8(static_cast<std::uint8_t>(r.code));
  w.u64(r.session_id);
  w.boolean(r.is_leader);
  return std::move(w).take();
}

Result<PingResponse> decode_ping_response(std::span<const std::uint8_t> wire) {
  BufReader r(wire);
  if (Status st = check_header(r, kPongTag, "PingResponse"); !st.is_ok()) {
    return st;
  }
  PingResponse out;
  out.code = static_cast<Code>(r.u8());
  out.session_id = r.u64();
  out.is_leader = r.boolean();
  if (!r.ok() || !r.at_end()) return Status::corruption("short PingResponse");
  return out;
}

}  // namespace zab::pb
