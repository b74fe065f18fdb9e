// Blocking client for the replica servers' client port.
//
// Owns a durable *session* (protocol v2): construction parameters arrive in
// a ClientConfig; the first request performs the connect handshake, which
// mints a replicated session on the ensemble. On connection failure the
// client transparently reconnects — rotating endpoints, re-attaching its
// session, re-registering its outstanding one-shot watches — and replays
// the in-flight request under its original xid, which every server dedups
// against the session's recorded outcome, so a write that committed just
// before the old connection died is answered, not re-executed.
//
// Reads are answered by the contacted server locally at a per-read
// consistency tier (ReadOptions): the client tracks the highest zxid it has
// observed — from write commits, connect acks, and every read response —
// and fences kSession reads (the default) at it, so its reads never travel
// backwards and always observe its own writes, even across endpoint
// rotation and failover. sync() flushes a barrier through the broadcast
// pipeline for linearizable fencing. Writes travel through the replicated
// pipeline. One outstanding request at a time (simple, synchronous — the
// style of most coordination-service client bindings' sync APIs). No
// background threads: the session lease is refreshed by ordinary traffic,
// by ping(), and while blocked in wait_watch_event().
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "pb/client_protocol.h"

namespace zab::pb {

struct Endpoint {
  std::string host;
  std::uint16_t port;
};

/// Pause before the next connection attempt after a failed one or a
/// rotation to another server.
inline constexpr Duration kReconnectBackoff = millis(20);

/// Everything a client needs to talk to an ensemble. Field-by-field
/// designated initializers replace the old positional constructor.
struct ClientConfig {
  std::vector<Endpoint> servers;
  /// Requested session lease; the primary clamps it (see PROTOCOL.md §11).
  Duration session_timeout = seconds(6);
  /// Per-operation deadline (spans reconnects and retries).
  Duration op_timeout = seconds(5);
};

/// Per-read options. Replaces the old positional `bool watch` parameter so
/// the consistency tier rides along without another signature change.
struct ReadOptions {
  /// Also register a one-shot watch (get -> data watch, exists ->
  /// exists/creation watch, get_children -> child watch).
  bool watch = false;
  /// Staleness tier; kSession (read-your-writes, monotonic) by default.
  ReadConsistency consistency = ReadConsistency::kSession;
};

class RemoteClient {
 public:
  using Endpoint = pb::Endpoint;  // compat alias for pre-config callers

  struct ClientStats {
    std::uint64_t reconnects = 0;   // handshakes that re-attached the session
    std::uint64_t sessions_lost = 0;  // handshakes that had to mint a new one
    std::uint64_t pings = 0;
    std::uint64_t replays = 0;      // requests re-sent after a reconnect
    std::uint64_t watches_reregistered = 0;
  };

  explicit RemoteClient(ClientConfig cfg);
  /// Gracefully closes the session (its ephemerals die now rather than at
  /// expiry) if a connection is up.
  ~RemoteClient();
  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  // --- Operations -------------------------------------------------------------
  /// Create a znode; returns the final path (sequential suffix resolved).
  /// Ephemeral znodes live as long as this client's *session*: they survive
  /// reconnects and die at session close or expiry.
  Result<std::string> create(const std::string& path, const Bytes& data,
                             bool sequential = false, bool ephemeral = false);
  /// Reads return the payload plus the zxid it is consistent with (the
  /// answering replica's delivered watermark) — hand that zxid to another
  /// client (see ReadOptions) or compare it across reads to reason about
  /// staleness; this client's own fence ratchets from it automatically.
  /// Reads may register a one-shot watch (ReadOptions::watch); the event
  /// arrives via poll_watch_event()/wait_watch_event(). Watches survive
  /// reconnects: the client re-registers outstanding ones — fenced at its
  /// observed zxid — after re-attaching its session.
  Result<ReadResult<Bytes>> get(const std::string& path,
                                const ReadOptions& opts = {});
  Result<ReadResult<bool>> exists(const std::string& path,
                                  const ReadOptions& opts = {});
  Result<ReadResult<std::vector<std::string>>> get_children(
      const std::string& path, const ReadOptions& opts = {});
  Result<ReadResult<Stat>> stat(const std::string& path,
                                const ReadOptions& opts = {});
  /// Flush a barrier through the broadcast pipeline and return its commit
  /// zxid. After sync() returns, this client's fence covers every write
  /// committed before the call — ZooKeeper's recipe for clients that learn
  /// of writes out of band. Costs one commit round.
  Result<Zxid> sync();
  /// Write ops return the commit zxid on success.
  Result<Zxid> set(const std::string& path, const Bytes& data,
                   std::int64_t expected_version = -1);
  Result<Zxid> remove(const std::string& path,
                      std::int64_t expected_version = -1);
  /// Atomic multi; on failure the status carries the first error and
  /// `failed_index` (see ClientResponse) identifies the sub-op.
  Result<ClientResponse> multi(const std::vector<Op>& ops);
  /// Session heartbeat: refreshes the lease on the primary's expiry clock.
  /// Returns kSessionExpired once the session is gone.
  Status ping();
  /// Liveness probe of the currently connected server.
  Result<bool> ping_is_leader();
  /// Gracefully close the session now (ephemerals are reaped at the commit
  /// zxid); the connection stays usable session-less for reads.
  Status close_session();

  // --- Membership (PROTOCOL.md §16) -------------------------------------------
  struct MemberInfo {
    NodeId id = kNoNode;
    bool voter = false;
    std::string addr;  // advertised client endpoint ("" = unknown)
  };
  struct ClusterInfo {
    std::string json;  // the server's config as one JSON object
    std::vector<MemberInfo> members;
    Zxid config_zxid;  // activation point of this config
  };
  /// Read the contacted server's active cluster config. When
  /// `refresh_endpoints` (default), the client's endpoint list is replaced
  /// by the members' advertised addresses — after a reconfig this keeps
  /// rotation pointed at the live ensemble instead of departed servers.
  Result<ClusterInfo> config(bool refresh_endpoints = true);
  /// Add `id` to the ensemble (voter, or observer with observer=true).
  /// `addr` is the server's advertised client endpoint, distributed to every
  /// member through the config txn. Returns the new config's activation
  /// zxid; the endpoint list refreshes on success.
  Result<Zxid> reconfig_add(NodeId id, const std::string& addr,
                            bool observer = false);
  /// Remove `id` from the ensemble (refused for the last voter). Returns
  /// the new config's activation zxid; the endpoint list refreshes on
  /// success.
  Result<Zxid> reconfig_remove(NodeId id);

  /// Raw request with endpoint rotation, transparent session reconnect, and
  /// idempotent replay (the xid is assigned once, before the first send).
  Result<ClientResponse> call(ClientRequest req);

  // --- Watch notifications -----------------------------------------------------
  /// Pop a watch event already received (interleaved with responses).
  std::optional<WatchEventMsg> poll_watch_event();
  /// Block up to `max_wait` for the next watch event. Transparently
  /// reconnects (session re-attach + watch re-registration) if the
  /// connection drops while waiting, and keeps the session lease refreshed
  /// with heartbeats.
  Result<WatchEventMsg> wait_watch_event(Duration max_wait);

  // --- Introspection ----------------------------------------------------------
  /// Index of the endpoint currently connected to (for tests/demos).
  [[nodiscard]] std::size_t current_endpoint() const { return current_; }
  /// Session id granted by the handshake (0 before the first request).
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  /// Highest packed zxid this client has observed — the fence kSession
  /// reads carry. Ratchets from write commits, connect acks, and every
  /// read/sync response; never decreases.
  [[nodiscard]] std::uint64_t last_seen_zxid() const {
    return last_seen_zxid_;
  }
  /// Lease granted by the primary (zero before the handshake).
  [[nodiscard]] Duration session_timeout() const {
    return millis(static_cast<std::int64_t>(negotiated_timeout_ms_));
  }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  /// Connect TCP + run the session handshake (attach-or-create) + re-register
  /// watches. On success fd_ is usable and session_id_ is set.
  Status ensure_connected();
  void disconnect();
  /// Move to the next server, after kReconnectBackoff.
  void rotate();
  Status send_all(std::span<const std::uint8_t> data, TimePoint deadline);
  Status send_frame(std::span<const std::uint8_t> payload, TimePoint deadline);
  Result<Bytes> read_frame(TimePoint deadline);
  /// Send one request and read its response on the current connection —
  /// no reconnect, no rotation (used by the handshake itself).
  Result<ClientResponse> roundtrip(const ClientRequest& req,
                                   TimePoint deadline);
  /// Build + issue one read at `opts`' tier (kSession reads are fenced at
  /// last_seen_zxid_) and record the watch registration on success.
  Result<ClientResponse> read_call(ClientOpKind kind, const std::string& path,
                                   const ReadOptions& opts);
  void note_watch_registered(ClientOpKind kind, const std::string& path);
  void note_watch_fired(const WatchEventMsg& ev);
  Status reregister_watches(TimePoint deadline);
  void stash_watch_event(const Bytes& frame);

  ClientConfig cfg_;
  int fd_ = -1;
  std::size_t current_ = 0;
  std::uint64_t next_xid_ = 1;
  std::uint64_t session_id_ = 0;
  std::uint32_t negotiated_timeout_ms_ = 0;
  std::uint64_t last_seen_zxid_ = 0;  // packed; highest commit observed
  std::map<std::string, std::set<ClientOpKind>> watches_;  // outstanding
  std::deque<WatchEventMsg> watch_events_;
  ClientStats stats_;
  SystemClock clock_;
};

}  // namespace zab::pb
