#include "net/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>

#include "common/build_info.h"

namespace zab::net {

namespace {

std::string response(int code, const char* reason, const char* content_type,
                     std::string body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

constexpr const char* kTextPlain = "text/plain; charset=utf-8";
/// The version Prometheus' scraper negotiates for the text format.
constexpr const char* kPromText = "text/plain; version=0.0.4; charset=utf-8";

/// The snapshot field that carries `target`'s body; null for targets
/// without one (/readyz, /healthz, unknown paths).
std::string* body_of(AdminSnapshot& snap, const std::string& target) {
  if (target == "/metrics") return &snap.prometheus;
  if (target == "/status") return &snap.status_json;
  if (target == "/tracez") return &snap.trace_jsonl;
  if (target == "/slowlog") return &snap.slowlog_jsonl;
  if (target == "/config") return &snap.config_json;
  return nullptr;
}

}  // namespace

std::string query_param(const std::string& query, const char* name) {
  const std::string needle = std::string(name) + '=';
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    if (query.compare(pos, needle.size(), needle) == 0) {
      return query.substr(pos + needle.size(), amp - pos - needle.size());
    }
    pos = amp + 1;
  }
  return {};
}

HttpParse parse_http_request(std::string& buf, HttpRequest* out) {
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string::npos) {
    // No terminator yet. A buffer past the cap can never become a valid
    // small request; a buffer that doesn't look like an HTTP method at all
    // fails fast instead of waiting for 8 KiB of garbage.
    if (buf.size() > kMaxAdminRequestBytes) return HttpParse::kTooLarge;
    const std::size_t line_end = buf.find("\r\n");
    if (line_end != std::string::npos) {
      // Full request line present: validate it now so a malformed client
      // gets its 400 without needing to send the blank line.
      const std::string line = buf.substr(0, line_end);
      if (std::count(line.begin(), line.end(), ' ') != 2 ||
          line.find("HTTP/1.") == std::string::npos) {
        return HttpParse::kBad;
      }
    }
    return HttpParse::kNeedMore;
  }
  if (end > kMaxAdminRequestBytes) return HttpParse::kTooLarge;

  const std::size_t line_end = buf.find("\r\n");
  const std::string line = buf.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
    return HttpParse::kBad;
  }
  out->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return HttpParse::kBad;
  const std::size_t q = target.find('?');
  if (q == std::string::npos) {
    out->target = std::move(target);
    out->query.clear();
  } else {
    out->query = target.substr(q + 1);
    out->target = target.substr(0, q);
  }
  buf.erase(0, end + 4);
  return HttpParse::kOk;
}

std::string AdminServer::handle(const HttpRequest& req,
                                const AdminSnapshot& snap, bool stale) {
  if (req.method != "GET") {
    return response(405, "Method Not Allowed", kTextPlain,
                    "admin plane is read-only\n");
  }
  if (req.target == "/healthz") {
    // Liveness only: answering at all is the signal. Never consults the
    // snapshot, so it stays 200 while the node loop is wedged.
    return response(200, "OK", kTextPlain, "ok\n");
  }
  if (req.target == "/readyz") {
    if (stale) {
      return response(503, "Service Unavailable", kTextPlain, "stale\n");
    }
    if (!snap.ready) {
      return response(503, "Service Unavailable", kTextPlain,
                      snap.not_ready_reason + "\n");
    }
    return response(200, "OK", kTextPlain, "ready\n");
  }
  if (req.target == "/metrics") {
    std::string body = snap.prometheus;
    body += build_info::prometheus_line();
    body += "# TYPE zab_admin_scrape_stale gauge\nzab_admin_scrape_stale ";
    body += stale ? "1\n" : "0\n";
    return response(200, "OK", kPromText, std::move(body));
  }
  if (req.target == "/status") {
    return response(200, "OK", "application/json", snap.status_json + "\n");
  }
  if (req.target == "/config") {
    if (snap.config_json.empty()) {
      return response(503, "Service Unavailable", kTextPlain,
                      "no cluster config collected\n");
    }
    return response(200, "OK", "application/json", snap.config_json + "\n");
  }
  if (req.target == "/tracez") {
    const std::string want_zxid = query_param(req.query, "zxid");
    const std::string want_epoch = query_param(req.query, "epoch");
    if (!stale || (want_zxid.empty() && want_epoch.empty())) {
      return response(200, "OK", "application/x-ndjson", snap.trace_jsonl);
    }
    // A stale answer is the cached whole ring: filter it by packed zxid or
    // by recorder epoch here. Collectors emit `"packed":N,` and `"epoch":E,`
    // on every line.
    const std::string needle = !want_zxid.empty()
                                   ? "\"packed\":" + want_zxid + ','
                                   : "\"epoch\":" + want_epoch + ',';
    std::string body;
    std::size_t pos = 0;
    while (pos < snap.trace_jsonl.size()) {
      std::size_t nl = snap.trace_jsonl.find('\n', pos);
      if (nl == std::string::npos) nl = snap.trace_jsonl.size();
      const std::string_view line(snap.trace_jsonl.data() + pos, nl - pos);
      if (line.find(needle) != std::string_view::npos) {
        body.append(line);
        body += '\n';
      }
      pos = nl + 1;
    }
    return response(200, "OK", "application/x-ndjson", std::move(body));
  }
  if (req.target == "/slowlog") {
    const std::string want = query_param(req.query, "n");
    const std::size_t n =
        want.empty() ? 0 : std::strtoull(want.c_str(), nullptr, 10);
    if (n == 0) {
      return response(200, "OK", "application/x-ndjson", snap.slowlog_jsonl);
    }
    // Entries are newest-first, so the limit is just the first n lines.
    std::string body;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n && pos < snap.slowlog_jsonl.size(); ++i) {
      std::size_t nl = snap.slowlog_jsonl.find('\n', pos);
      if (nl == std::string::npos) nl = snap.slowlog_jsonl.size();
      body.append(snap.slowlog_jsonl, pos, nl - pos);
      body += '\n';
      pos = nl + 1;
    }
    return response(200, "OK", "application/x-ndjson", std::move(body));
  }
  return response(404, "Not Found", kTextPlain, "not found\n");
}

AdminServer::AdminServer(AdminConfig cfg, Collector collector)
    : cfg_(std::move(cfg)), collector_(std::move(collector)) {
  cache_.status_json = "{\"error\":\"no snapshot collected\"}";
}

AdminServer::~AdminServer() { stop(); }

Status AdminServer::start() {
  ZAB_RETURN_IF_ERROR(
      reactor_.listen_tcp(cfg_.host, cfg_.port, &port_, [this](int fd) {
        const std::uint64_t id = next_conn_++;
        auto on_event = [this, id](std::uint32_t) { on_conn(id); };
        if (!conns_[id].conn.attach(fd, reactor_, on_event)) conns_.erase(id);
      }));
  return reactor_.start("zab-admin");
}

void AdminServer::stop() {
  reactor_.stop();
  conns_.clear();  // FramedConn closes its socket
}

bool AdminServer::fetch(const HttpRequest& req, AdminSnapshot* out) {
  // The waiter state is shared with the collector's completion through a
  // shared_ptr: a completion arriving after the timeout (or after this
  // server died) touches only the orphaned state, never `this`.
  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    AdminSnapshot snap;
  };
  auto p = std::make_shared<Pending>();
  if (collector_) {
    collector_(req, [p](AdminSnapshot s) {
      std::lock_guard<std::mutex> lk(p->mu);
      p->snap = std::move(s);
      p->done = true;
      p->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(p->mu);
  const bool fresh =
      p->cv.wait_for(lk, std::chrono::nanoseconds(kAdminCollectTimeout),
                     [&p] { return p->done; });
  std::lock_guard<std::mutex> clk(cache_mu_);
  if (!fresh) {
    *out = cache_;
    return false;
  }
  // A filtered /tracez body is never cached: a later stale answer filters
  // the cached whole ring for its own query instead.
  std::string* cached = body_of(cache_, req.target);
  if (cached && (req.target != "/tracez" || req.query.empty())) {
    *cached = *body_of(p->snap, req.target);
  }
  *out = std::move(p->snap);
  return true;
}

void AdminServer::serve_conn(Conn& c) {
  HttpRequest req;
  std::string resp;
  switch (parse_http_request(c.in, &req)) {
    case HttpParse::kNeedMore:
      return;
    case HttpParse::kBad:
      resp = response(400, "Bad Request", kTextPlain, "bad request\n");
      break;
    case HttpParse::kTooLarge:
      resp = response(431, "Request Header Fields Too Large", kTextPlain,
                      "request too large\n");
      break;
    case HttpParse::kOk:
      // /healthz must not touch the collector: liveness stays cheap and
      // cannot be dragged down by a wedged node loop. Nor does a non-GET,
      // which handle() refuses without reading the snapshot.
      if (req.method != "GET" || req.target == "/healthz") {
        resp = handle(req, AdminSnapshot{}, false);
      } else {
        AdminSnapshot snap;
        const bool fresh = fetch(req, &snap);
        resp = handle(req, snap, !fresh);
      }
      break;
  }
  c.answered = true;  // Connection: close on every response
  // Refused only past kMaxAdminResponseBytes; the connection then closes
  // unanswered.
  (void)c.conn.push(Bytes(resp.begin(), resp.end()), /*framed=*/false);
}

void AdminServer::on_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  const bool open = c.conn.read([&] {
    const auto in = c.conn.input();
    if (!c.answered) {
      c.in.append(reinterpret_cast<const char*>(in.data()), in.size());
      serve_conn(c);
    }
    c.conn.consume(in.size());
    return true;
  });
  if (!open || c.conn.flush() < 0 ||
      (c.answered && c.conn.queued_bytes() == 0)) {
    conns_.erase(it);  // FramedConn closes its socket
  }
}

Result<std::string> http_get(std::uint16_t port, const std::string& target,
                             Duration timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::io_error("socket");
  timeval tv{};
  tv.tv_sec = timeout / kSecond;
  tv.tv_usec = (timeout % kSecond) / kMicrosecond;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::io_error(std::string("connect: ") + std::strerror(errno));
  }
  std::string req = "GET " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t w =
        ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      ::close(fd);
      return Status::io_error("send");
    }
    off += static_cast<std::size_t>(w);
  }
  std::string resp;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      resp.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::io_error("recv timeout");
    }
    break;  // EOF
  }
  ::close(fd);
  if (resp.empty()) return Status::io_error("empty response");
  return resp;
}

std::string http_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  if (pos == std::string::npos) return response;
  return response.substr(pos + 4);
}

}  // namespace zab::net
