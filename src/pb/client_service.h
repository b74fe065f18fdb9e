// Server-side client service: accepts external client connections on a TCP
// port and executes their requests against the local replica.
//
// Connections and sessions are decoupled (protocol v2): a connection opens
// with a ConnectRequest handshake that attaches to an existing replicated
// session or mints a new one through the broadcast pipeline; losing the
// connection does NOT close the session — only the primary's expiry clock
// (or a graceful kCloseSession) does, so ephemerals survive a reconnect
// within the session timeout. PING frames refresh the lease without
// entering the pipeline.
//
// Reads (getData/exists/getChildren/stat) are answered from the local tree
// at the request's consistency tier (PROTOCOL.md §15): kLocal serves
// immediately; kSession parks the read in a watermark-keyed wait queue
// until this replica's delivered zxid reaches the client's fence (woken
// from the deliver path, bounded by ZAB_READ_FENCE_TIMEOUT_MS, then
// kNotReady so the client rotates); kLinearizable first flushes a sync
// barrier through the broadcast pipeline and serves at the barrier's zxid.
// Reads never fan out to the ensemble — follower read capacity scales with
// server count. Writes enter the replicated pipeline (forwarded to the
// primary if this server follows) and are answered when the txn commits.
// Request execution happens on the replica's event loop; a dedicated IO
// thread (a Reactor, net/reactor.h) owns the sockets — the same
// single-threaded-core discipline as the rest of the stack. Responses and
// watch events are handed to it and queued whole on the connection's
// FramedConn. A client with more than kClientOutCap bytes queued behind the
// response being written, and its kernel buffer full, is disconnected; its
// session survives and the client re-attaches.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/reactor.h"
#include "net/runtime_env.h"
#include "pb/client_protocol.h"
#include "pb/replicated_tree.h"

namespace zab::pb {

/// Largest client frame, either direction.
inline constexpr std::size_t kMaxClientFrame = 16u << 20;
/// Per-connection output cap (the overflow rule in net/reactor.h).
inline constexpr std::size_t kClientOutCap = 4u << 20;

class ClientService {
 public:
  ClientService(net::RuntimeEnv& env, ReplicatedTree& tree);
  ~ClientService();
  ClientService(const ClientService&) = delete;
  ClientService& operator=(const ClientService&) = delete;

  /// Bind (port 0 = ephemeral) and start serving.
  Status start(const std::string& host, std::uint16_t port);
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  struct Conn {
    net::FramedConn conn{kMaxClientFrame, kClientOutCap};
    bool dirty = false;  // queued output not yet flushed
  };

  /// IO thread: read requests off a connection, write what is queued.
  void on_conn(std::uint64_t conn_id);
  /// IO thread: close the socket; the session lives on.
  void close_conn(std::uint64_t conn_id);
  /// IO thread, on wake: queue handed-over frames on their connections
  /// and write them, one sendmsg per connection.
  void drain_out();
  /// IO thread: hand one request frame to the replica's loop.
  void dispatch(std::uint64_t conn_id, Bytes frame);
  /// Replica loop thread: run one request, reply when the result is known.
  /// `ingress_ns` is when the frame was parsed off the wire (IO thread);
  /// writes carry it into the replication pipeline for span attribution.
  void execute(std::uint64_t conn_id, const ClientRequest& req,
               std::int64_t ingress_ns);
  /// Replica loop: session handshake — attach-or-create.
  void handle_connect(std::uint64_t conn_id, const ConnectRequest& req);
  void finish_connect(std::uint64_t conn_id, std::uint64_t session_id,
                      bool reattached);
  /// Replica loop: heartbeat — refresh the lease, report leadership.
  void handle_ping(std::uint64_t conn_id, const PingRequest& req);
  /// Session bound to `conn_id` by its handshake (0 = none).
  [[nodiscard]] std::uint64_t session_of(std::uint64_t conn_id) const;
  /// IO thread: the connection died. The session stays alive — the expiry
  /// clock (or a graceful close) reaps it, not the TCP teardown.
  void on_disconnect(std::uint64_t conn_id);
  /// Any thread: queue a response for a connection and wake the IO thread.
  void respond(std::uint64_t conn_id, const ClientResponse& resp);
  /// Any thread: queue a raw payload (watch-event push) for a connection.
  void push_frame(std::uint64_t conn_id, Bytes payload);
  /// Replica loop: register a one-shot tree watch that pushes to conn_id.
  void register_watch(std::uint64_t conn_id, ClientOpKind kind,
                      const std::string& path);

  // --- Tiered read path (all on the replica loop) ---------------------------
  /// Answer a read at its consistency fence: serve now if the delivered
  /// watermark already covers it, otherwise park (kSession) or flush a sync
  /// barrier first (kLinearizable).
  void handle_read(std::uint64_t conn_id, const ClientRequest& req,
                   std::int64_t ingress_ns);
  /// Serve from the local tree at the current watermark. The accompanying
  /// watch registers here — the fenced read's apply point — so it cannot
  /// fire for (or swallow) txns ordered before the read's answer.
  /// `parked_since_ns` >= 0 marks a read that waited in the fence queue.
  void serve_read(std::uint64_t conn_id, const ClientRequest& req,
                  std::int64_t ingress_ns, std::int64_t parked_since_ns);
  /// kSync: flush a barrier txn, answer with its commit zxid.
  void handle_sync(std::uint64_t conn_id, const ClientRequest& req);
  /// Queue a read until the delivered watermark reaches `fence`.
  void park_read(std::uint64_t conn_id, const ClientRequest& req,
                 std::int64_t ingress_ns);
  /// Deliver-path hook: serve every parked read whose fence is now covered.
  void wake_parked_reads();
  /// A parked read waited out ZAB_READ_FENCE_TIMEOUT_MS: kNotReady.
  void expire_parked_read(std::uint64_t park_id);
  /// Synthetic span for a read that sat in the fence queue, so parked reads
  /// surface in the slow-op log with their wait charged to queue_wait.
  void note_parked_read(const ClientRequest& req, std::uint64_t session,
                        std::int64_t ingress_ns, std::int64_t parked_since_ns,
                        std::int64_t now_ns);

  net::RuntimeEnv* env_;
  ReplicatedTree* tree_;

  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  net::Reactor reactor_;

  std::mutex mu_;  // guards pending_out_
  std::vector<std::pair<std::uint64_t, Bytes>> pending_out_;

  // IO-thread local.
  std::vector<std::pair<std::uint64_t, Bytes>> out_batch_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;

  // Replica-loop local: which session each connection authenticated as.
  std::unordered_map<std::uint64_t, std::uint64_t> conn_session_;
  AtomicCounter* c_reconnects_ = nullptr;  // handshakes that re-attached
  // Undecodable frames: all counted, at most one WARN per second.
  AtomicCounter* c_rejected_frames_ = nullptr;
  std::uint64_t rejected_since_warn_ = 0;
  TimePoint last_reject_warn_ = -kSecond;

  // Replica-loop local: reads parked until the delivered watermark reaches
  // their fence, keyed by packed fence zxid (woken in fence order from the
  // deliver path).
  struct ParkedRead {
    std::uint64_t park_id = 0;
    std::uint64_t conn_id = 0;
    ClientRequest req;
    std::int64_t ingress_ns = -1;
    std::int64_t parked_at_ns = -1;
    TimerId timer = 0;
  };
  std::multimap<std::uint64_t, ParkedRead> parked_;
  std::uint64_t next_park_id_ = 1;
  Duration read_fence_timeout_;

  // Read-path observability. Counters are thread-safe; the histograms are
  // loop-owned and only ever recorded on the replica loop.
  AtomicCounter* c_reads_local_ = nullptr;    // answered at current watermark
  AtomicCounter* c_reads_fenced_ = nullptr;   // parked, then served
  AtomicCounter* c_reads_not_ready_ = nullptr;  // parked, timed out
  Histogram* h_read_parked_ns_ = nullptr;     // time spent in the fence queue
  Histogram* h_sync_barrier_ns_ = nullptr;    // kSync / linearizable barrier
};

}  // namespace zab::pb
