// TCP mesh transport: length-prefixed frames over per-pair connections. It
// is the real runtime's only peer transport; one instance belongs to one
// node.
//
// Delivery contract: best-effort and FIFO per (sender, receiver) while a
// connection lives, with silent drops across connection breaks — the same
// contract the simulator provides, and the failure model the protocol's
// re-sync path expects. It mirrors ZooKeeper's transport choice (dedicated
// TCP channels between servers, §6). The receive handler runs on the IO
// thread; RuntimeEnv users post each message onto the node's event loop.
//
// Topology: every node listens on its configured port; for sending to peer
// P it maintains one *outgoing* connection to P (created lazily, re-dialed
// with backoff). Inbound connections are receive-only and identified by a
// hello frame, so no connection dedup/negotiation is needed.
//
// Wire format (little-endian):
//   hello:  u32 magic 0x5a41424e ("ZABN") | u32 sender id
//   frame:  u32 len | payload[len]            (len capped at 64 MiB)
//
// One IO thread per transport runs a Reactor (net/reactor.h). send() from
// any thread hands the payload over and wakes it; the IO thread queues it on
// the peer's FramedConn and writes at once, one sendmsg covering many
// queued frames (counted under net.tcp.writev_calls). A link holds at most
// one frame plus kPeerOutCap: a send that would overflow a slow peer's link
// closes it, its unwritten frames count as net.tcp.send_drops, and the
// protocol's gap detection resyncs the peer over the next connection.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
#include "net/reactor.h"

namespace zab::net {

/// Largest payload one peer frame may carry (a SNAP of the whole tree).
inline constexpr std::size_t kMaxPeerFrame = 64u << 20;
/// Per-link output cap (the overflow rule in net/reactor.h).
inline constexpr std::size_t kPeerOutCap = 8u << 20;

struct TcpConfig {
  NodeId id = kNoNode;
  std::string host = "127.0.0.1";
  /// Listen/dial port per ensemble member.
  std::map<NodeId, std::uint16_t> ports;
  /// Re-dial a broken outgoing connection after this long (real time, ms).
  int reconnect_ms = 200;
  /// Optional shared registry; when set, traffic is counted under net.tcp.*
  /// (atomic counters only — safe from the IO thread). Must outlive the
  /// transport.
  MetricsRegistry* metrics = nullptr;
};

class TcpTransport {
 public:
  using Handler = std::function<void(NodeId from, Bytes payload)>;

  /// Binds the listen socket and starts the IO thread.
  static Result<std::unique_ptr<TcpTransport>> create(TcpConfig cfg);
  ~TcpTransport();
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Best-effort, non-blocking send to a peer; thread-safe.
  void send(NodeId to, Bytes payload);
  /// Install the receive callback (set it before traffic flows).
  void set_handler(Handler h);
  /// Close every socket and stop the IO thread; no sends or receives after
  /// this returns.
  void shutdown();

  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Update the peer port map (e.g. after every member bound an ephemeral
  /// port). Affects future dials; thread-safe.
  void set_peer_ports(std::map<NodeId, std::uint16_t> ports);

 private:
  explicit TcpTransport(TcpConfig cfg);
  Status init();

  struct Outgoing {
    FramedConn conn{kMaxPeerFrame, kPeerOutCap};
    std::int64_t next_dial_ns = 0;  // backoff after a failed or broken link
    bool redial_armed = false;
  };
  struct Inbound {
    FramedConn conn{kMaxPeerFrame, kPeerOutCap};
    NodeId peer = kNoNode;  // learned from hello
  };

  // All on the IO thread.
  void drain_sends();
  /// Get a link's queued frames moving: flush, or dial when it is down.
  void kick(NodeId peer, Outgoing& out);
  /// Connect, or arm a redial once the backoff has passed.
  void dial(NodeId peer, Outgoing& out);
  void close_outgoing(Outgoing& out);
  void on_outgoing(NodeId peer, std::uint32_t events);
  void on_inbound(std::uint64_t id);
  bool parse_inbound(Inbound& in, const Handler& h);

  TcpConfig cfg_;
  SystemClock clock_;
  std::uint16_t listen_port_ = 0;
  Reactor reactor_;

  std::mutex mu_;  // guards cfg_.ports, handler_, pending_, running_
  Handler handler_;
  std::vector<std::pair<NodeId, Bytes>> pending_;  // for the IO thread
  bool running_ = false;

  // IO-thread state.
  std::vector<std::pair<NodeId, Bytes>> batch_;  // pending_ swapped out
  std::map<NodeId, Outgoing> outgoing_;
  std::unordered_map<std::uint64_t, Inbound> inbound_;
  std::uint64_t next_inbound_ = 1;

  // Registry handles, resolved once in init(); the registry is private when
  // the config names none.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  AtomicCounter* c_msgs_out_ = nullptr;
  AtomicCounter* c_bytes_out_ = nullptr;
  AtomicCounter* c_msgs_in_ = nullptr;
  AtomicCounter* c_bytes_in_ = nullptr;
  AtomicCounter* c_send_drops_ = nullptr;
  AtomicCounter* c_connects_ = nullptr;
  AtomicCounter* c_conn_breaks_ = nullptr;
  AtomicCounter* c_writev_calls_ = nullptr;
};

}  // namespace zab::net
