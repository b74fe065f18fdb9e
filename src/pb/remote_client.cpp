#include "pb/remote_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace zab::pb {

RemoteClient::RemoteClient(ClientConfig cfg) : cfg_(std::move(cfg)) {}

RemoteClient::~RemoteClient() {
  if (fd_ >= 0 && session_id_ != 0) {
    // Graceful close on the existing connection, bounded best effort: the
    // session's ephemerals die at the close txn's zxid instead of waiting
    // out the expiry clock. On failure the expiry clock reaps them anyway.
    ClientRequest req;
    req.kind = ClientOpKind::kCloseSession;
    req.xid = next_xid_++;
    (void)roundtrip(req, clock_.now() + millis(500));
  }
  disconnect();
}

void RemoteClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void RemoteClient::rotate() {
  ++current_;
  disconnect();
  std::this_thread::sleep_for(std::chrono::nanoseconds(kReconnectBackoff));
}

Status RemoteClient::ensure_connected() {
  if (fd_ >= 0) return Status::ok();
  if (cfg_.servers.empty()) return Status::invalid_argument("no servers");
  const Endpoint& ep = cfg_.servers[current_ % cfg_.servers.size()];

  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::io_error("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    return Status::invalid_argument("bad host " + ep.host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    disconnect();
    return Status::io_error("connect " + ep.host + ":" +
                            std::to_string(ep.port));
  }

  // Session handshake: attach to our session if we have one (the server
  // refuses if it lags what we've already observed, or if the session
  // expired — then it mints a fresh one), else create.
  const TimePoint deadline = clock_.now() + cfg_.op_timeout;
  ConnectRequest creq;
  creq.session_id = session_id_;
  creq.timeout_ms =
      static_cast<std::uint32_t>(cfg_.session_timeout / millis(1));
  creq.last_zxid = last_seen_zxid_;
  if (Status st = send_frame(encode_connect_request(creq), deadline);
      !st.is_ok()) {
    disconnect();
    return st;
  }
  while (true) {
    auto frame = read_frame(deadline);
    if (!frame.is_ok()) {
      disconnect();
      return frame.status();
    }
    if (classify_frame(frame.value()) != FrameType::kConnectAck) continue;
    auto resp = decode_connect_response(frame.value());
    if (!resp.is_ok()) {
      disconnect();
      return resp.status();
    }
    const ConnectResponse& ack = resp.value();
    if (ack.code != Code::kOk) {
      disconnect();
      return Status(ack.code, "connect refused");
    }
    const bool had_session = session_id_ != 0;
    if (had_session && ack.reattached) {
      ++stats_.reconnects;
    } else if (had_session && !ack.reattached) {
      // The old session expired server-side: its ephemerals and watches
      // are gone; we continue under the freshly minted one.
      ++stats_.sessions_lost;
      watches_.clear();
    }
    session_id_ = ack.session_id;
    negotiated_timeout_ms_ = ack.timeout_ms;
    if (ack.last_zxid > last_seen_zxid_) last_seen_zxid_ = ack.last_zxid;
    break;
  }
  if (!watches_.empty()) {
    if (Status st = reregister_watches(deadline); !st.is_ok()) {
      disconnect();
      return st;
    }
  }
  return Status::ok();
}

Status RemoteClient::reregister_watches(TimePoint deadline) {
  // One-shot watches that had not fired before the old connection died are
  // re-registered on the new server. A watched node that disappeared while
  // we were away cannot carry a data watch anymore: surface that as the
  // kDeleted event the client would otherwise have missed.
  const auto outstanding = watches_;
  for (const auto& [path, kinds] : outstanding) {
    for (const ClientOpKind kind : kinds) {
      ClientRequest req;
      req.kind = kind;
      req.path = path;
      req.watch = true;
      // Fenced like any session read: the new server may not register this
      // watch against a tree older than what we already observed, or it
      // could fire for (or miss) events we have already seen.
      req.consistency = ReadConsistency::kSession;
      req.fence_zxid = last_seen_zxid_;
      req.xid = next_xid_++;
      auto resp = roundtrip(req, deadline);
      if (!resp.is_ok()) return resp.status();
      if (kind != ClientOpKind::kExists &&
          resp.value().code == Code::kNotFound) {
        watch_events_.push_back(
            WatchEventMsg{WatchEvent::kNodeDeleted, path});
        auto it = watches_.find(path);
        if (it != watches_.end()) {
          it->second.erase(kind);
          if (it->second.empty()) watches_.erase(it);
        }
        continue;
      }
      ++stats_.watches_reregistered;
    }
  }
  return Status::ok();
}

Status RemoteClient::send_all(std::span<const std::uint8_t> data,
                              TimePoint deadline) {
  std::size_t off = 0;
  while (off < data.size()) {
    if (clock_.now() > deadline) return Status::timeout("send");
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status RemoteClient::send_frame(std::span<const std::uint8_t> payload,
                                TimePoint deadline) {
  BufWriter framed(payload.size() + 4);
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  framed.raw(payload);
  return send_all(framed.data(), deadline);
}

Result<Bytes> RemoteClient::read_frame(TimePoint deadline) {
  Bytes buf;
  auto read_exact = [&](std::size_t want) -> Status {
    const std::size_t start = buf.size();
    buf.resize(start + want);
    std::size_t got = 0;
    while (got < want) {
      const Duration left = deadline - clock_.now();
      if (left <= 0) return Status::timeout("recv");
      pollfd p{fd_, POLLIN, 0};
      const int rc =
          ::poll(&p, 1, static_cast<int>(left / kMillisecond) + 1);
      if (rc < 0 && errno != EINTR) return Status::io_error("poll");
      if (rc <= 0) continue;
      const ssize_t n = ::recv(fd_, buf.data() + start + got, want - got, 0);
      if (n == 0) return Status::closed("server closed connection");
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return Status::io_error("recv");
      }
      got += static_cast<std::size_t>(n);
    }
    return Status::ok();
  };

  ZAB_RETURN_IF_ERROR(read_exact(4));
  std::uint32_t len = 0;
  std::memcpy(&len, buf.data(), 4);
  if (len > (16u << 20)) return Status::corruption("oversized frame");
  buf.clear();
  ZAB_RETURN_IF_ERROR(read_exact(len));
  return buf;
}

void RemoteClient::stash_watch_event(const Bytes& frame) {
  if (auto ev = decode_watch_event(frame); ev.is_ok()) {
    note_watch_fired(ev.value());
    watch_events_.push_back(ev.value());
  }
}

void RemoteClient::note_watch_registered(ClientOpKind kind,
                                         const std::string& path) {
  watches_[path].insert(kind);
}

void RemoteClient::note_watch_fired(const WatchEventMsg& ev) {
  auto it = watches_.find(ev.path);
  if (it == watches_.end()) return;
  // One-shot semantics: the fired registration is spent. Child events spend
  // the child watch; node events spend data/exists watches.
  if (ev.event == WatchEvent::kChildrenChanged) {
    it->second.erase(ClientOpKind::kGetChildren);
  } else {
    it->second.erase(ClientOpKind::kGetData);
    it->second.erase(ClientOpKind::kExists);
  }
  if (it->second.empty()) watches_.erase(it);
}

Result<ClientResponse> RemoteClient::roundtrip(const ClientRequest& req,
                                               TimePoint deadline) {
  ZAB_RETURN_IF_ERROR(send_frame(encode_client_request(req), deadline));
  while (true) {
    auto frame = read_frame(deadline);
    if (!frame.is_ok()) return frame.status();
    switch (classify_frame(frame.value())) {
      case FrameType::kWatchEvent:
        // Pushes may interleave with the response: stash them.
        stash_watch_event(frame.value());
        continue;
      case FrameType::kPong:
        continue;  // stale heartbeat answer
      case FrameType::kResponse:
        return decode_client_response(frame.value());
      default:
        return Status::corruption("unexpected frame from server");
    }
  }
}

Result<ClientResponse> RemoteClient::call(ClientRequest req) {
  const TimePoint deadline = clock_.now() + cfg_.op_timeout;
  // The xid is assigned ONCE per logical operation and reused verbatim
  // across reconnect retries: servers record each session's last committed
  // (cxid -> outcome), so a replayed write that already committed is
  // answered from the record instead of executed twice.
  if (req.xid == 0) req.xid = next_xid_++;
  Status last = Status::not_ready("no attempt made");
  bool sent_once = false;

  while (clock_.now() < deadline) {
    if (Status st = ensure_connected(); !st.is_ok()) {
      last = st;
      rotate();
      continue;
    }
    if (sent_once) ++stats_.replays;
    auto resp = roundtrip(req, deadline);
    sent_once = true;
    if (!resp.is_ok()) {
      last = resp.status();
      disconnect();
      rotate();
      continue;
    }
    if (resp.value().xid != req.xid) {
      // xid 0: the server could not decode the request; resending won't help.
      if (resp.value().xid == 0) return resp;
      last = Status::internal("xid mismatch");
      disconnect();
      continue;
    }
    // Not-ready servers (no leader yet / back-pressure): try another.
    if (resp.value().code == Code::kNotReady ||
        resp.value().code == Code::kNotLeader ||
        resp.value().code == Code::kTimeout) {
      last = Status(resp.value().code, "server not ready");
      rotate();
      continue;
    }
    if (resp.value().zxid.packed() > last_seen_zxid_) {
      last_seen_zxid_ = resp.value().zxid.packed();
    }
    return resp;
  }
  return last.is_ok() ? Status::timeout("client op timeout") : last;
}

// --- Convenience wrappers --------------------------------------------------------

Result<std::string> RemoteClient::create(const std::string& path,
                                         const Bytes& data, bool sequential,
                                         bool ephemeral) {
  ClientRequest req;
  req.kind = ClientOpKind::kWrite;
  Op op;
  op.type = OpType::kCreate;
  op.path = path;
  op.data = data;
  op.sequential = sequential;
  op.ephemeral = ephemeral;
  req.ops.push_back(std::move(op));
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "create failed");
  }
  return resp.value().paths.empty() ? path : resp.value().paths.front();
}

Result<ClientResponse> RemoteClient::read_call(ClientOpKind kind,
                                               const std::string& path,
                                               const ReadOptions& opts) {
  ClientRequest req;
  req.kind = kind;
  req.path = path;
  req.watch = opts.watch;
  req.consistency = opts.consistency;
  // Session reads carry our observed high-water mark; the server answers
  // only once its delivered watermark reaches it (or kNotReady after the
  // fence timeout, which call() turns into a rotation). kLocal reads fence
  // at nothing; kLinearizable fences server-side at a fresh sync barrier.
  if (opts.consistency == ReadConsistency::kSession) {
    req.fence_zxid = last_seen_zxid_;
  }
  auto resp = call(std::move(req));
  if (resp.is_ok() && resp.value().code == Code::kOk && opts.watch) {
    note_watch_registered(kind, path);
  }
  return resp;
}

Result<ReadResult<Bytes>> RemoteClient::get(const std::string& path,
                                            const ReadOptions& opts) {
  auto resp = read_call(ClientOpKind::kGetData, path, opts);
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "get failed");
  }
  return ReadResult<Bytes>{std::move(resp.value().data), resp.value().zxid};
}

Result<ReadResult<bool>> RemoteClient::exists(const std::string& path,
                                              const ReadOptions& opts) {
  auto resp = read_call(ClientOpKind::kExists, path, opts);
  if (!resp.is_ok()) return resp.status();
  return ReadResult<bool>{resp.value().exists, resp.value().zxid};
}

Result<ReadResult<std::vector<std::string>>> RemoteClient::get_children(
    const std::string& path, const ReadOptions& opts) {
  auto resp = read_call(ClientOpKind::kGetChildren, path, opts);
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "getChildren failed");
  }
  return ReadResult<std::vector<std::string>>{std::move(resp.value().paths),
                                              resp.value().zxid};
}

Result<ReadResult<Stat>> RemoteClient::stat(const std::string& path,
                                            const ReadOptions& opts) {
  auto resp = read_call(ClientOpKind::kStat, path, opts);
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "stat failed");
  }
  return ReadResult<Stat>{resp.value().stat, resp.value().zxid};
}

Result<Zxid> RemoteClient::sync() {
  ClientRequest req;
  req.kind = ClientOpKind::kSync;
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "sync failed");
  }
  // call() already ratcheted last_seen_zxid_ to the barrier zxid, so every
  // subsequent kSession read observes the pre-sync state of the world.
  return resp.value().zxid;
}

Result<Zxid> RemoteClient::set(const std::string& path, const Bytes& data,
                               std::int64_t expected_version) {
  ClientRequest req;
  req.kind = ClientOpKind::kWrite;
  Op op;
  op.type = OpType::kSetData;
  op.path = path;
  op.data = data;
  op.expected_version = expected_version;
  req.ops.push_back(std::move(op));
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "set failed");
  }
  return resp.value().zxid;
}

Result<Zxid> RemoteClient::remove(const std::string& path,
                                  std::int64_t expected_version) {
  ClientRequest req;
  req.kind = ClientOpKind::kWrite;
  Op op;
  op.type = OpType::kDelete;
  op.path = path;
  op.expected_version = expected_version;
  req.ops.push_back(std::move(op));
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "delete failed");
  }
  return resp.value().zxid;
}

Result<ClientResponse> RemoteClient::multi(const std::vector<Op>& ops) {
  ClientRequest req;
  req.kind = ClientOpKind::kWrite;
  req.ops = ops;
  return call(std::move(req));
}

Status RemoteClient::close_session() {
  if (session_id_ == 0) return Status::ok();
  ClientRequest req;
  req.kind = ClientOpKind::kCloseSession;
  auto resp = call(std::move(req));
  session_id_ = 0;
  negotiated_timeout_ms_ = 0;
  watches_.clear();
  if (!resp.is_ok()) return resp.status();
  return resp.value().code == Code::kOk
             ? Status::ok()
             : Status(resp.value().code, "close session failed");
}

std::optional<WatchEventMsg> RemoteClient::poll_watch_event() {
  if (watch_events_.empty()) return std::nullopt;
  WatchEventMsg ev = watch_events_.front();
  watch_events_.pop_front();
  return ev;
}

Result<WatchEventMsg> RemoteClient::wait_watch_event(Duration max_wait) {
  if (auto ev = poll_watch_event()) return *ev;
  const TimePoint deadline = clock_.now() + max_wait;
  TimePoint last_ping = clock_.now();

  while (clock_.now() < deadline) {
    if (fd_ < 0) {
      // Transparent reconnect: re-attach the session and re-register the
      // outstanding watches, then keep waiting. Re-registration can itself
      // surface a missed event (node deleted while away).
      if (Status st = ensure_connected(); !st.is_ok()) {
        rotate();
        continue;
      }
      if (auto ev = poll_watch_event()) return *ev;
    }

    // Keep the session lease fresh while parked: heartbeat at a third of
    // the negotiated timeout. The PONG is consumed below.
    TimePoint slice_end = deadline;
    if (session_id_ != 0 && negotiated_timeout_ms_ != 0) {
      const Duration interval =
          millis(static_cast<std::int64_t>(negotiated_timeout_ms_)) / 3;
      if (clock_.now() - last_ping >= interval) {
        PingRequest preq;
        preq.session_id = session_id_;
        if (Status st = send_frame(encode_ping_request(preq), deadline);
            !st.is_ok()) {
          disconnect();
          continue;
        }
        ++stats_.pings;
        last_ping = clock_.now();
      }
      slice_end = std::min(deadline, last_ping + interval);
    }

    auto frame = read_frame(slice_end);
    if (!frame.is_ok()) {
      if (frame.status().code() == Code::kTimeout) continue;  // ping due
      disconnect();  // reconnect on the next spin
      continue;
    }
    switch (classify_frame(frame.value())) {
      case FrameType::kWatchEvent: {
        if (auto ev = decode_watch_event(frame.value()); ev.is_ok()) {
          note_watch_fired(ev.value());
          return ev.value();
        }
        continue;
      }
      case FrameType::kPong:
        continue;
      default:
        continue;  // unsolicited response frames are dropped
    }
  }
  return Status::timeout("no watch event");
}

Status RemoteClient::ping() {
  const TimePoint deadline = clock_.now() + cfg_.op_timeout;
  ZAB_RETURN_IF_ERROR(ensure_connected());
  PingRequest preq;
  preq.session_id = session_id_;
  if (Status st = send_frame(encode_ping_request(preq), deadline);
      !st.is_ok()) {
    disconnect();
    return st;
  }
  while (clock_.now() < deadline) {
    auto frame = read_frame(deadline);
    if (!frame.is_ok()) {
      disconnect();
      return frame.status();
    }
    switch (classify_frame(frame.value())) {
      case FrameType::kWatchEvent:
        stash_watch_event(frame.value());
        continue;
      case FrameType::kPong: {
        auto resp = decode_ping_response(frame.value());
        if (!resp.is_ok()) return resp.status();
        ++stats_.pings;
        return resp.value().code == Code::kOk
                   ? Status::ok()
                   : Status(resp.value().code, "session ping");
      }
      default:
        continue;
    }
  }
  return Status::timeout("ping");
}

Result<bool> RemoteClient::ping_is_leader() {
  ClientRequest req;
  req.kind = ClientOpKind::kPing;
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  return resp.value().is_leader;
}

Result<RemoteClient::ClusterInfo> RemoteClient::config(
    bool refresh_endpoints) {
  ClientRequest req;
  req.kind = ClientOpKind::kConfig;
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "config read failed");
  }
  ClusterInfo out;
  out.json.assign(resp.value().data.begin(), resp.value().data.end());
  out.config_zxid = resp.value().zxid;
  for (const std::string& entry : resp.value().paths) {
    // "id:role:addr"; addr itself may contain ':' (host:port).
    const std::size_t c1 = entry.find(':');
    if (c1 == std::string::npos) continue;
    const std::size_t c2 = entry.find(':', c1 + 1);
    if (c2 == std::string::npos) continue;
    MemberInfo m;
    m.id = static_cast<NodeId>(
        std::strtoul(entry.substr(0, c1).c_str(), nullptr, 10));
    m.voter = entry.compare(c1 + 1, c2 - c1 - 1, "voter") == 0;
    m.addr = entry.substr(c2 + 1);
    if (m.id != kNoNode) out.members.push_back(std::move(m));
  }
  if (refresh_endpoints) {
    std::vector<Endpoint> servers;
    for (const MemberInfo& m : out.members) {
      const std::size_t colon = m.addr.rfind(':');
      if (colon == std::string::npos || colon == 0) continue;
      const auto port = std::strtoul(m.addr.c_str() + colon + 1, nullptr, 10);
      if (port == 0 || port > 65535) continue;
      servers.push_back(Endpoint{m.addr.substr(0, colon),
                                 static_cast<std::uint16_t>(port)});
    }
    // Only adopt a list we can actually dial; a config without advertised
    // addresses (in-process harness clusters) leaves the endpoints alone.
    if (!servers.empty()) {
      cfg_.servers = std::move(servers);
      if (current_ >= cfg_.servers.size()) current_ = 0;
    }
  }
  return out;
}

Result<Zxid> RemoteClient::reconfig_add(NodeId id, const std::string& addr,
                                        bool observer) {
  ClientRequest req;
  req.kind = ClientOpKind::kReconfig;
  Op op;
  op.type = OpType::kReconfig;
  ReconfigRequest rc;
  rc.action = observer ? ReconfigAction::kAddObserver
                       : ReconfigAction::kAddVoter;
  rc.node = id;
  rc.addr = addr;
  op.data = encode_reconfig_request(rc);
  req.ops.push_back(std::move(op));
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "reconfig add failed");
  }
  const Zxid z = resp.value().zxid;
  (void)config();  // learn the new ensemble we just created
  return z;
}

Result<Zxid> RemoteClient::reconfig_remove(NodeId id) {
  ClientRequest req;
  req.kind = ClientOpKind::kReconfig;
  Op op;
  op.type = OpType::kReconfig;
  ReconfigRequest rc;
  rc.action = ReconfigAction::kRemove;
  rc.node = id;
  op.data = encode_reconfig_request(rc);
  req.ops.push_back(std::move(op));
  auto resp = call(std::move(req));
  if (!resp.is_ok()) return resp.status();
  if (resp.value().code != Code::kOk) {
    return Status(resp.value().code, "reconfig remove failed");
  }
  const Zxid z = resp.value().zxid;
  (void)config();  // drop the departed server from our endpoint list
  return z;
}

}  // namespace zab::pb
