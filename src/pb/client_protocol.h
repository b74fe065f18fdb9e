// Wire protocol between external clients and replica servers.
//
// Framing: u32 length prefix, then one frame. Every frame opens with a
// 3-byte versioned header — magic 0x5A ('Z'), protocol version, frame tag —
// so incompatible clients fail fast with a clear error instead of a silent
// misparse. Version history:
//
//   v1  (retired)  bare tag byte, no session handshake
//   v2  (retired)  versioned header; ConnectRequest/ConnectResponse session
//                  handshake, PingRequest/PingResponse heartbeats, per-op
//                  xid replay after reconnect
//   v3             tiered read consistency: requests carry a consistency
//                  byte + fence zxid, responses carry the answering
//                  replica's delivered zxid, and kSync flushes a barrier
//                  through the broadcast pipeline
//
// Every request carries a client-chosen xid echoed in the response; for
// writes the xid doubles as the session's cxid (assigned once per logical
// op, reused across retries) so a replayed in-flight write is answered from
// the recorded outcome instead of re-executed. Writes are executed through
// the replicated pipeline (any server forwards to the primary); reads are
// served from the contacted server's local tree, fenced per request at the
// client's chosen consistency tier (PROTOCOL.md §15).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "pb/data_tree.h"
#include "pb/ops.h"

namespace zab::pb {

/// First two bytes of every v2 frame.
inline constexpr std::uint8_t kWireMagic = 0x5A;  // 'Z'
inline constexpr std::uint8_t kWireVersion = 3;

/// How stale an answer a read is willing to accept (PROTOCOL.md §15).
enum class ReadConsistency : std::uint8_t {
  /// Serve from the contacted replica's tree immediately — may predate
  /// writes this same client already saw committed. Explicit opt-in.
  kLocal = 0,
  /// Default. The request carries the highest zxid the client has observed
  /// (`fence_zxid`); the server answers only once its delivered watermark
  /// has reached it, parking the read until the deliver path catches up
  /// (bounded by kReadFenceTimeout in client_service.h, then kNotReady so
  /// the client rotates). Session reads therefore never travel backwards in
  /// zxid order and always observe the client's own writes.
  kSession = 1,
  /// The server first flushes a sync barrier through the broadcast
  /// pipeline and serves the read at (or after) the barrier's zxid: the
  /// answer reflects every write committed before the read was issued.
  /// Costs one commit round; reads still never fan out to the ensemble.
  kLinearizable = 2,
};

/// What a received frame is, decided from the 3-byte header alone.
enum class FrameType : std::uint8_t {
  kInvalid = 0,
  kRequest,
  kResponse,
  kWatchEvent,
  kConnect,
  kConnectAck,
  kPing,
  kPong,
};
[[nodiscard]] FrameType classify_frame(std::span<const std::uint8_t> wire);

enum class ClientOpKind : std::uint8_t {
  kWrite = 1,        // one or more Ops (multi when >1), atomic
  kGetData = 2,
  kExists = 3,
  kGetChildren = 4,
  kStat = 5,
  kPing = 6,         // liveness + leader hint
  // 7, 8 and 10 are retired (they carried monitoring data, which now leaves
  // a replica only through the admin plane); decode rejects them.
  kCloseSession = 9, // graceful close: the session + its ephemerals die now
                     // instead of waiting out the expiry clock
  kSync = 11,        // flush a barrier through the broadcast pipeline;
                     // response.zxid is the barrier's commit zxid — a read
                     // fenced at it observes every write committed before
                     // the sync was issued (ZooKeeper's sync())
  kReconfig = 12,    // membership change: ops[0].type == OpType::kReconfig
                     // and ops[0].data carries a ReconfigRequest; routed to
                     // the primary, response.zxid is the new config's
                     // activation zxid (PROTOCOL.md §16)
  kConfig = 13,      // read the contacted server's active cluster config:
                     // response.data carries it as JSON and response.paths
                     // carries one "id:role:addr" entry per member so
                     // clients can refresh their endpoint list
};

/// Opens (or resumes) a session on a connection; must be the first frame.
struct ConnectRequest {
  std::uint64_t session_id = 0;  // 0 = mint a new session
  std::uint32_t timeout_ms = 0;  // requested lease (the primary clamps it)
  /// Highest packed zxid this client has observed. A server whose local
  /// state is older refuses the attach (kNotReady): re-attaching there
  /// could travel back in time and break replay dedup.
  std::uint64_t last_zxid = 0;
};

struct ConnectResponse {
  Code code = Code::kOk;
  std::uint64_t session_id = 0;  // resolved id (echo or freshly minted)
  std::uint32_t timeout_ms = 0;  // granted lease
  bool reattached = false;       // true: existing session resumed
  std::uint64_t last_zxid = 0;   // server's last delivered zxid (packed)
};

/// Session heartbeat: refreshes the primary's expiry clock for this session
/// without entering the broadcast pipeline.
struct PingRequest {
  std::uint64_t session_id = 0;
};

struct PingResponse {
  Code code = Code::kOk;  // kSessionExpired once the session is gone
  std::uint64_t session_id = 0;
  bool is_leader = false;  // does the contacted server lead?
};

struct ClientRequest {
  std::uint64_t xid = 0;
  ClientOpKind kind = ClientOpKind::kPing;
  std::string path;       // reads
  std::vector<Op> ops;    // kWrite
  /// Reads only: also register a one-shot watch (kGetData -> data watch,
  /// kExists -> exists/creation watch, kGetChildren -> child watch). The
  /// server pushes a WatchEventMsg frame on this connection when it fires.
  /// The watch is registered at the fenced read's apply point, so it cannot
  /// fire for — or swallow — txns ordered before the read's answer.
  bool watch = false;
  /// Reads only: staleness tier (see ReadConsistency). Writes ignore it.
  ReadConsistency consistency = ReadConsistency::kSession;
  /// Reads at kSession: highest packed zxid this client has observed; the
  /// server's delivered watermark must reach it before answering. Unused
  /// (0) for kLocal; kLinearizable derives its fence from the sync barrier
  /// server-side.
  std::uint64_t fence_zxid = 0;
};

/// Server -> client push notification (one-shot watch fired).
struct WatchEventMsg {
  WatchEvent event = WatchEvent::kDataChanged;
  std::string path;
};

struct ClientResponse {
  std::uint64_t xid = 0;
  Code code = Code::kOk;
  Bytes data;                       // kGetData
  std::vector<std::string> paths;   // kGetChildren / created paths of write
  Stat stat;                        // kStat / kExists
  bool exists = false;
  std::int32_t failed_index = -1;   // failing sub-op of a write
  /// Writes: the txn's commit zxid. Reads: the answering replica's
  /// delivered watermark when the read was served — the client ratchets
  /// its observed zxid from it so session reads never travel backwards.
  /// kSync: the barrier's commit zxid.
  Zxid zxid;
  bool is_leader = false;           // kPing: does this server lead?
};

[[nodiscard]] Bytes encode_client_request(const ClientRequest& r);
[[nodiscard]] Result<ClientRequest> decode_client_request(
    std::span<const std::uint8_t> wire);

[[nodiscard]] Bytes encode_client_response(const ClientResponse& r);
[[nodiscard]] Result<ClientResponse> decode_client_response(
    std::span<const std::uint8_t> wire);

[[nodiscard]] Bytes encode_watch_event(const WatchEventMsg& w);
[[nodiscard]] Result<WatchEventMsg> decode_watch_event(
    std::span<const std::uint8_t> wire);

[[nodiscard]] Bytes encode_connect_request(const ConnectRequest& r);
[[nodiscard]] Result<ConnectRequest> decode_connect_request(
    std::span<const std::uint8_t> wire);

[[nodiscard]] Bytes encode_connect_response(const ConnectResponse& r);
[[nodiscard]] Result<ConnectResponse> decode_connect_response(
    std::span<const std::uint8_t> wire);

[[nodiscard]] Bytes encode_ping_request(const PingRequest& r);
[[nodiscard]] Result<PingRequest> decode_ping_request(
    std::span<const std::uint8_t> wire);

[[nodiscard]] Bytes encode_ping_response(const PingResponse& r);
[[nodiscard]] Result<PingResponse> decode_ping_response(
    std::span<const std::uint8_t> wire);

}  // namespace zab::pb
