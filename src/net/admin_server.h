// Out-of-band admin plane: a tiny read-only HTTP/1.1 server on its own port.
//
// Operators and probes talk HTTP (curl, Prometheus, Kubernetes) — the client
// protocol stays for clients. The admin server shares no state with the
// client-protocol path: its own listener and its own IO thread (a Reactor,
// net/reactor.h), no sessions, no length framing — requests and responses
// are raw bytes on a FramedConn, one response per connection. Endpoints:
//
//   GET /healthz   liveness: 200 "ok" while the process serves HTTP at all.
//   GET /readyz    readiness: 200 "ready" when the node can serve its role
//                  (see ZabNode::readiness); 503 with a reason while
//                  electing/syncing/quorum-lost, or when the node's event
//                  loop stopped answering ("stale").
//   GET /metrics   Prometheus text exposition (counters, gauges, summaries)
//                  plus zab_build_info and zab_admin_scrape_stale.
//   GET /status    one JSON object: role, epoch, zxids, peers, sessions,
//                  storage stats.
//   GET /tracez    TraceRing timeline as JSONL; ?zxid=<packed> filters to
//                  one transaction, ?epoch=<e> to one epoch's events.
//   GET /slowlog   slow-op ring as JSONL, newest first, one request span per
//                  line with its per-stage decomposition; ?n=<k> limits to
//                  the k most recent entries.
//   GET /config    the active replicated cluster config as one JSON object:
//                  version, activation zxid, voters, observers, addresses.
//
// Freshness contract: protocol state (histograms, readiness, traces) is
// owned by the node's event loop, so every GET except /healthz asks a
// Collector for readiness and that target's body, rendered ON that loop,
// and waits at most collect_timeout. When the loop is wedged (the exact
// moment you scrape hardest), the server answers anyway from the last good
// body, marked stale — /metrics keeps exporting, /readyz goes 503. The HTTP
// surface never blocks on the protocol for longer than the collect timeout.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/time.h"
#include "net/reactor.h"

namespace zab::net {

/// Point-in-time view of one node, produced on its event-loop thread: one
/// collection fills readiness and the body of one target.
struct AdminSnapshot {
  std::string prometheus;   // MetricsSnapshot::to_prometheus() output
  std::string status_json;  // complete /status body (one JSON object)
  std::string trace_jsonl;  // one JSON object per trace event, \n-separated
  std::string slowlog_jsonl;  // slow-op ring, newest first, one span per line
  std::string config_json;  // active cluster config (/config body)
  bool ready = false;
  std::string not_ready_reason = "unknown";  // "electing" etc.
};

struct AdminConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0: pick an ephemeral port (see AdminServer::port)
  /// How long one request waits for a fresh snapshot from the node loop
  /// before falling back to the cached one (marked stale).
  Duration collect_timeout = millis(250);
};

/// The subset of an HTTP/1.1 request the admin plane cares about.
struct HttpRequest {
  std::string method;
  std::string target;  // path only, no query
  std::string query;   // text after '?' (empty if none)
};

enum class HttpParse {
  kNeedMore,  // incomplete: keep the buffer, read more
  kOk,        // one request consumed from the front of the buffer
  kBad,       // malformed request line: answer 400 and close
  kTooLarge,  // header block exceeds the cap: answer 431 and close
};

/// Incremental parser over a connection's receive buffer. On kOk the
/// request (through its blank-line terminator) is erased from `buf`;
/// pipelined bytes after it survive for the next call. Bodies are not
/// supported — the admin plane is GET-only and rejects anything with one.
HttpParse parse_http_request(std::string& buf, HttpRequest* out);

/// Value of `name` in an application/x-www-form-urlencoded-ish query
/// ("a=1&b=2"); empty when absent. No %-decoding — admin values are
/// decimal numbers.
[[nodiscard]] std::string query_param(const std::string& query,
                                      const char* name);

/// Header cap for parse_http_request (request line + headers).
inline constexpr std::size_t kMaxAdminRequestBytes = 8192;
/// Largest response the admin plane writes (a full /tracez dump).
inline constexpr std::size_t kMaxAdminResponseBytes = 64u << 20;

class AdminServer {
 public:
  /// Produce a fresh snapshot for `req` (readiness, and the body of its
  /// target if it has one, filtered by its query where the target filters)
  /// and hand it to `done`. Invoked from the admin IO thread;
  /// implementations post to the node's event loop and call `done` from
  /// there (any thread is fine). If `done` is never called — loop stopped,
  /// task dropped — the server times out and serves stale.
  using Collector = std::function<void(
      const HttpRequest& req, std::function<void(AdminSnapshot)> done)>;

  AdminServer(AdminConfig cfg, Collector collector);
  ~AdminServer();
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Bind, listen, and start the IO thread.
  [[nodiscard]] Status start();
  /// Stop the IO thread and close every socket. Safe to call twice.
  void stop();

  /// Bound port (resolves cfg.port == 0 after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Pure request -> full HTTP response mapping (status line through body).
  /// Static so unit tests cover routing without sockets; `stale` marks
  /// `snap` as a cached copy whose collect timed out. A fresh /tracez body
  /// arrives filtered; a stale one is the cached whole ring, filtered here.
  [[nodiscard]] static std::string handle(const HttpRequest& req,
                                          const AdminSnapshot& snap,
                                          bool stale);

 private:
  struct Conn {
    FramedConn conn{kMaxAdminResponseBytes, kMaxAdminResponseBytes};
    std::string in;
    bool answered = false;  // Connection: close after the one response
  };

  /// IO thread: read, answer at most one request, close once written.
  void on_conn(std::uint64_t id);
  void serve_conn(Conn& c);
  /// Fresh snapshot for `req` from the collector, or the cached one.
  /// Returns true when the result is fresh.
  bool fetch(const HttpRequest& req, AdminSnapshot* out);

  AdminConfig cfg_;
  Collector collector_;
  std::uint16_t port_ = 0;
  Reactor reactor_;
  std::unordered_map<std::uint64_t, Conn> conns_;  // IO thread
  std::uint64_t next_conn_ = 1;

  // The last good body per endpoint, served when a collection times out
  // (for /tracez, the last unfiltered one).
  // IO-thread only once running; the mutex covers the pre-start window.
  std::mutex cache_mu_;
  AdminSnapshot cache_;
};

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:port used by tests and
/// the CLI: sends `GET target`, reads to EOF, returns the full response
/// (status line, headers, body). `timeout` bounds connect and read.
[[nodiscard]] Result<std::string> http_get(std::uint16_t port,
                                           const std::string& target,
                                           Duration timeout = millis(5000));

/// Body of an http_get() response (text after the header terminator), or
/// the whole input when no terminator is found.
[[nodiscard]] std::string http_body(const std::string& response);

}  // namespace zab::net
