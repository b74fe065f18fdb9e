#include "pb/client_service.h"

#include "common/logging.h"
#include "common/op_span.h"
#include "pb/admin_status.h"

namespace zab::pb {

ClientService::ClientService(net::RuntimeEnv& env, ReplicatedTree& tree)
    : env_(&env), tree_(&tree), reactor_([this] { drain_out(); }) {
  auto& m = tree.node().metrics();
  c_reconnects_ = &m.counter("pb.client.reconnects");
  c_rejected_frames_ = &m.counter("zab.client.rejected_frames");
  c_reads_local_ = &m.counter("zab.read.served_local");
  c_reads_fenced_ = &m.counter("zab.read.fenced");
  c_reads_not_ready_ = &m.counter("zab.read.not_ready");
  h_read_parked_ns_ = &m.histogram("zab.read.parked_ns");
  h_sync_barrier_ns_ = &m.histogram("zab.sync.barrier_ns");
  // Wake parked reads from the deliver path. The handler list is loop-owned
  // and this service is constructed after the node started, so the
  // registration itself must hop onto the loop. Ordering inside a delivery:
  // the tree's own deliver handler was registered first (ReplicatedTree
  // ctor), so by the time this one runs the txn is already applied and the
  // watermark already advanced — a woken read observes the new state.
  env_->post([this] {
    tree_->node().add_deliver_handler(
        [this](const Txn&) { wake_parked_reads(); });
  });
}

ClientService::~ClientService() { stop(); }

Status ClientService::start(const std::string& host, std::uint16_t port) {
  ZAB_RETURN_IF_ERROR(reactor_.listen_tcp(host, port, &port_, [this](int fd) {
    const std::uint64_t id = next_conn_id_++;
    auto on_event = [this, id](std::uint32_t) { on_conn(id); };
    if (!conns_[id].conn.attach(fd, reactor_, on_event)) conns_.erase(id);
  }));
  running_ = true;
  return reactor_.start("zab-cli-" + std::to_string(tree_->node().id()));
}

void ClientService::stop() {
  if (!running_.exchange(false)) return;
  // Drop parked reads on the loop first: their fence timers capture `this`
  // and must not fire after teardown. The loop is still running here (the
  // service always stops before its node's env).
  env_->run_sync([this] {
    for (auto& [fence, pr] : parked_) env_->cancel_timer(pr.timer);
    parked_.clear();
  });
  reactor_.stop();
  for (const auto& [id, c] : conns_) on_disconnect(id);
  conns_.clear();  // FramedConn closes its socket
}

void ClientService::respond(std::uint64_t conn_id,
                            const ClientResponse& resp) {
  push_frame(conn_id, encode_client_response(resp));
}

void ClientService::push_frame(std::uint64_t conn_id, Bytes payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    pending_out_.emplace_back(conn_id, std::move(payload));
  }
  reactor_.wake();
}

void ClientService::drain_out() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    out_batch_.swap(pending_out_);
  }
  for (auto& [id, payload] : out_batch_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // connection gone: drop the frame
    it->second.dirty = true;
    // The overflow rule: a client that stopped reading is disconnected.
    if (it->second.conn.push(std::move(payload)) < 0) close_conn(id);
  }
  // Write at once: one sendmsg per connection carries its whole share.
  for (const auto& [id, payload] : out_batch_) {
    auto it = conns_.find(id);
    if (it == conns_.end() || !it->second.dirty) continue;
    it->second.dirty = false;
    if (it->second.conn.flush() < 0) close_conn(id);
  }
  out_batch_.clear();
}

void ClientService::on_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  net::FramedConn& conn = it->second.conn;
  const bool open = conn.read([&] {
    return conn.pop_frames(
        [&](Bytes frame) { dispatch(conn_id, std::move(frame)); });
  });
  if (!open || conn.flush() < 0) close_conn(conn_id);
}

void ClientService::close_conn(std::uint64_t conn_id) {
  if (conns_.erase(conn_id) != 0) on_disconnect(conn_id);
}

void ClientService::register_watch(std::uint64_t conn_id, ClientOpKind kind,
                                   const std::string& path) {
  auto push = [this, conn_id](WatchEvent ev, const std::string& p) {
    // Fires on the replica loop when the txn applies locally; if the
    // connection is gone by delivery time, the frame is simply dropped.
    push_frame(conn_id, encode_watch_event(WatchEventMsg{ev, p}));
  };
  switch (kind) {
    case ClientOpKind::kGetData:
      tree_->tree().watch_data(path, push);
      break;
    case ClientOpKind::kExists:
      if (tree_->exists(path)) {
        tree_->tree().watch_data(path, push);  // change/delete watch
      } else {
        tree_->tree().watch_exists(path, push);  // creation watch
      }
      break;
    case ClientOpKind::kGetChildren:
      tree_->tree().watch_children(path, push);
      break;
    default:
      break;
  }
}

// --- Tiered read path -------------------------------------------------------

void ClientService::handle_read(std::uint64_t conn_id,
                                const ClientRequest& req,
                                std::int64_t ingress_ns) {
  if (req.consistency == ReadConsistency::kLinearizable) {
    // Server-driven barrier: one client round trip. By the time the
    // barrier's callback runs, the barrier txn has delivered locally, so
    // the watermark covers every write committed before this read arrived
    // and the read can be served straight from the callback.
    const std::int64_t start_ns = env_->now();
    const ClientRequest copy = req;
    tree_->sync_barrier(
        [this, conn_id, copy, ingress_ns, start_ns](const OpResult& r) {
          h_sync_barrier_ns_->record(env_->now() - start_ns);
          if (!r.status.is_ok()) {
            ClientResponse resp;
            resp.xid = copy.xid;
            resp.code = r.status.code();
            respond(conn_id, resp);
            return;
          }
          serve_read(conn_id, copy, ingress_ns, /*parked_since_ns=*/-1);
        });
    return;
  }
  const std::uint64_t fence =
      req.consistency == ReadConsistency::kLocal ? 0 : req.fence_zxid;
  if (tree_->node().last_delivered().packed() >= fence) {
    c_reads_local_->add();
    serve_read(conn_id, req, ingress_ns, /*parked_since_ns=*/-1);
    return;
  }
  park_read(conn_id, req, ingress_ns);
}

void ClientService::serve_read(std::uint64_t conn_id, const ClientRequest& req,
                               std::int64_t ingress_ns,
                               std::int64_t parked_since_ns) {
  ClientResponse resp;
  resp.xid = req.xid;
  switch (req.kind) {
    case ClientOpKind::kGetData: {
      auto v = tree_->get(req.path);
      resp.code = v.status().code();
      if (v.is_ok()) resp.data = std::move(v.value().value);
      if (req.watch && v.is_ok()) {
        register_watch(conn_id, req.kind, req.path);
      }
      break;
    }
    case ClientOpKind::kExists: {
      resp.exists = tree_->exists(req.path);
      if (resp.exists) {
        if (auto s = tree_->stat(req.path); s.is_ok()) {
          resp.stat = s.value().value;
        }
      }
      if (req.watch) register_watch(conn_id, req.kind, req.path);
      break;
    }
    case ClientOpKind::kGetChildren: {
      auto kids = tree_->children(req.path);
      resp.code = kids.status().code();
      if (kids.is_ok()) {
        resp.paths = std::move(kids.value().value);
        if (req.watch) register_watch(conn_id, req.kind, req.path);
      }
      break;
    }
    case ClientOpKind::kStat: {
      auto s = tree_->stat(req.path);
      resp.code = s.status().code();
      if (s.is_ok()) resp.stat = s.value().value;
      break;
    }
    default:
      resp.code = Code::kInvalidArgument;
      break;
  }
  // Every read answer carries this replica's delivered watermark: the
  // client's session fence ratchets forward from it, so a later read — here
  // or at another replica — can never observe older state.
  resp.zxid = tree_->node().last_delivered();
  if (parked_since_ns >= 0) {
    const std::int64_t now_ns = env_->now();
    c_reads_fenced_->add();
    h_read_parked_ns_->record(now_ns - parked_since_ns);
    note_parked_read(req, session_of(conn_id), ingress_ns, parked_since_ns,
                     now_ns);
  }
  respond(conn_id, resp);
}

void ClientService::handle_sync(std::uint64_t conn_id,
                                const ClientRequest& req) {
  const std::uint64_t xid = req.xid;
  const std::int64_t start_ns = env_->now();
  tree_->sync_barrier([this, conn_id, xid, start_ns](const OpResult& r) {
    h_sync_barrier_ns_->record(env_->now() - start_ns);
    ClientResponse resp;
    resp.xid = xid;
    resp.code = r.status.code();
    resp.zxid = r.zxid;
    respond(conn_id, resp);
  });
}

void ClientService::park_read(std::uint64_t conn_id, const ClientRequest& req,
                              std::int64_t ingress_ns) {
  ParkedRead pr;
  pr.park_id = next_park_id_++;
  pr.conn_id = conn_id;
  pr.req = req;
  pr.ingress_ns = ingress_ns;
  pr.parked_at_ns = env_->now();
  const std::uint64_t park_id = pr.park_id;
  pr.timer = env_->set_timer(kReadFenceTimeout,
                             [this, park_id] { expire_parked_read(park_id); });
  parked_.emplace(req.fence_zxid, std::move(pr));
}

void ClientService::wake_parked_reads() {
  if (parked_.empty()) return;
  const std::uint64_t watermark = tree_->node().last_delivered().packed();
  while (!parked_.empty() && parked_.begin()->first <= watermark) {
    ParkedRead pr = std::move(parked_.begin()->second);
    parked_.erase(parked_.begin());
    env_->cancel_timer(pr.timer);
    serve_read(pr.conn_id, pr.req, pr.ingress_ns, pr.parked_at_ns);
  }
}

void ClientService::expire_parked_read(std::uint64_t park_id) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->second.park_id != park_id) continue;
    const ParkedRead pr = std::move(it->second);
    parked_.erase(it);
    c_reads_not_ready_->add();
    h_read_parked_ns_->record(env_->now() - pr.parked_at_ns);
    // The client rotates to a replica whose watermark covers its fence.
    ClientResponse resp;
    resp.xid = pr.req.xid;
    resp.code = Code::kNotReady;
    resp.zxid = tree_->node().last_delivered();
    respond(pr.conn_id, resp);
    return;
  }
}

void ClientService::note_parked_read(const ClientRequest& req,
                                     std::uint64_t session,
                                     std::int64_t ingress_ns,
                                     std::int64_t parked_since_ns,
                                     std::int64_t now_ns) {
  // Reads normally never touch the slow-op machinery; one that sat in the
  // fence queue is exactly the kind of tail the log exists for. Synthesize
  // a span whose queue_wait stage carries the park duration (the serve
  // itself is microseconds) and let the ring's threshold decide admission.
  OpSpan span;
  span.session_id = session;
  span.cxid = req.xid;
  span.zxid = req.fence_zxid;  // the fence it waited for
  span.op_kind = static_cast<std::uint8_t>(req.kind);
  span.path = req.path;
  span.recv_ns = ingress_ns >= 0 ? ingress_ns : parked_since_ns;
  span.propose_ns = now_ns;  // queue_wait = recv -> propose = the park
  span.deliver_ns = now_ns;
  span.reply_ns = now_ns;
  tree_->node().slow_log().observe(span);
}

void ClientService::on_disconnect(std::uint64_t conn_id) {
  // Sessions outlive connections (ZooKeeper semantics): only the primary's
  // expiry clock or a graceful kCloseSession reaps the ephemerals. Here we
  // just forget the binding.
  env_->post([this, conn_id] { conn_session_.erase(conn_id); });
}

std::uint64_t ClientService::session_of(std::uint64_t conn_id) const {
  auto it = conn_session_.find(conn_id);
  return it == conn_session_.end() ? 0 : it->second;
}

void ClientService::handle_connect(std::uint64_t conn_id,
                                   const ConnectRequest& req) {
  const std::uint64_t local_last = tree_->node().last_delivered().packed();
  if (req.last_zxid > local_last) {
    // This replica lags what the client already observed; attaching here
    // would let its session travel back in time (and break replay dedup).
    // The client rotates to a caught-up server.
    ConnectResponse resp;
    resp.code = Code::kNotReady;
    resp.last_zxid = local_last;
    push_frame(conn_id, encode_connect_response(resp));
    return;
  }
  auto create = [this, conn_id, timeout_ms = req.timeout_ms] {
    tree_->create_session(timeout_ms, [this, conn_id](const OpResult& r) {
      if (r.status.is_ok()) {
        finish_connect(conn_id, r.session_id, /*reattached=*/false);
        return;
      }
      ConnectResponse resp;
      resp.code = r.status.code();
      push_frame(conn_id, encode_connect_response(resp));
    });
  };
  if (req.session_id == 0) {
    create();
    return;
  }
  // Attach-or-create. The attach runs through the pipeline as a
  // kTouchSession txn, so an expiry racing with it is decided by zxid
  // order — and by the time it commits, this replica has applied every txn
  // the session committed before reconnecting (replay dedup relies on
  // that). An expired or unknown session falls back to a fresh one.
  auto attached = [this, conn_id, create](const OpResult& r) {
    if (!r.status.is_ok()) {
      create();
      return;
    }
    c_reconnects_->add();
    finish_connect(conn_id, r.session_id, /*reattached=*/true);
  };
  tree_->attach_session(req.session_id, attached);
}

void ClientService::finish_connect(std::uint64_t conn_id,
                                   std::uint64_t session_id, bool reattached) {
  conn_session_[conn_id] = session_id;
  ConnectResponse resp;
  resp.session_id = session_id;
  resp.reattached = reattached;
  resp.last_zxid = tree_->node().last_delivered().packed();
  // The create/touch txn has applied locally by now, so the granted lease
  // is in the replicated table.
  if (const SessionInfo* info = tree_->tree().session(session_id)) {
    resp.timeout_ms = info->timeout_ms;
  }
  push_frame(conn_id, encode_connect_response(resp));
}

void ClientService::handle_ping(std::uint64_t conn_id,
                                const PingRequest& req) {
  PingResponse resp;
  resp.session_id = req.session_id != 0 ? req.session_id
                                        : session_of(conn_id);
  if (resp.session_id != 0) {
    if (tree_->session_alive(resp.session_id)) {
      tree_->touch_session(resp.session_id);
    } else {
      resp.code = Code::kSessionExpired;
    }
  }
  resp.is_leader = tree_->node().is_active_leader();
  push_frame(conn_id, encode_ping_response(resp));
}

void ClientService::dispatch(std::uint64_t conn_id, Bytes frame) {
  // Stamp ingress on the IO thread, before the hop to the replica loop:
  // the span's queue_wait stage must include that hand-off. SystemClock is
  // stateless, so reading it off-loop is safe.
  const TimePoint ingress_ns = env_->now();
  env_->post([this, conn_id, ingress_ns, frame = std::move(frame)] {
    switch (classify_frame(frame)) {
      case FrameType::kConnect: {
        if (auto req = decode_connect_request(frame); req.is_ok()) {
          handle_connect(conn_id, req.value());
          return;
        }
        break;
      }
      case FrameType::kPing: {
        if (auto req = decode_ping_request(frame); req.is_ok()) {
          handle_ping(conn_id, req.value());
          return;
        }
        break;
      }
      default: {
        auto req = decode_client_request(frame);
        if (req.is_ok()) {
          execute(conn_id, req.value(), ingress_ns);
          return;
        }
        // Undecodable — includes retired v1 frames. Ship the decode error's
        // message in `data` so old clients see why, not just a code. One
        // client can send any number of them: count each, warn once a second.
        c_rejected_frames_->add();
        ++rejected_since_warn_;
        if (const TimePoint now = env_->now(); now - last_reject_warn_ >= kSecond) {
          ZAB_WARN() << "rejecting client frame: " << req.status().to_string()
                     << " (" << rejected_since_warn_ << " since the last warning)";
          last_reject_warn_ = now;
          rejected_since_warn_ = 0;
        }
        ClientResponse resp;
        resp.code = Code::kInvalidArgument;
        const std::string msg = req.status().to_string();
        resp.data.assign(msg.begin(), msg.end());
        respond(conn_id, resp);
        return;
      }
    }
    c_rejected_frames_->add();  // an undecodable connect or ping
    ClientResponse resp;
    resp.code = Code::kInvalidArgument;
    respond(conn_id, resp);
  });
}

void ClientService::execute(std::uint64_t conn_id, const ClientRequest& req,
                            std::int64_t ingress_ns) {
  ClientResponse resp;
  resp.xid = req.xid;

  switch (req.kind) {
    case ClientOpKind::kGetData:
    case ClientOpKind::kExists:
    case ClientOpKind::kGetChildren:
    case ClientOpKind::kStat: {
      handle_read(conn_id, req, ingress_ns);
      return;  // reply happens at (or after) the consistency fence
    }
    case ClientOpKind::kSync: {
      handle_sync(conn_id, req);
      return;  // reply happens when the barrier txn commits
    }
    case ClientOpKind::kPing: {
      resp.is_leader = tree_->node().is_active_leader();
      if (const std::uint64_t sid = session_of(conn_id); sid != 0) {
        tree_->touch_session(sid);
      }
      break;
    }
    case ClientOpKind::kWrite: {
      if (req.ops.empty()) {
        resp.code = Code::kInvalidArgument;
        break;
      }
      const std::uint64_t sid = session_of(conn_id);
      // Replay dedup: the client reuses one xid per logical write across
      // retries, and every replica records the committed outcome against
      // (session, cxid). A session's attach txn is ordered after all its
      // committed writes, so by the time a reconnected client replays, the
      // recorded answer (if any) is visible here.
      if (const SessionInfo* info = tree_->tree().session(sid);
          info != nullptr && req.xid != 0 && info->last_cxid == req.xid) {
        resp.code = static_cast<Code>(info->last_code);
        resp.zxid = Zxid::from_packed(info->last_zxid);
        if (!info->last_path.empty()) resp.paths.push_back(info->last_path);
        break;
      }
      const std::uint64_t xid = req.xid;
      tree_->submit_multi(
          req.ops,
          [this, conn_id, xid](const OpResult& r) {
            ClientResponse out;
            out.xid = xid;
            out.code = r.status.code();
            out.zxid = r.zxid;
            out.failed_index = r.failed_index;
            if (!r.path.empty()) out.paths.push_back(r.path);
            for (const auto& p : r.paths) out.paths.push_back(p);
            respond(conn_id, out);
          },
          /*session=*/sid, /*cxid=*/req.xid, ingress_ns);
      return;  // reply happens at commit time
    }
    case ClientOpKind::kReconfig: {
      if (req.ops.size() != 1 ||
          req.ops.front().type != OpType::kReconfig) {
        resp.code = Code::kInvalidArgument;
        break;
      }
      const std::uint64_t xid = req.xid;
      // No (session, cxid) stamping: a replayed reconfig re-resolves against
      // the then-active config, and duplicates fail cleanly (kExists /
      // kNotFound) instead of splicing a stale member list back in.
      tree_->submit(
          req.ops.front(),
          [this, conn_id, xid](const OpResult& r) {
            ClientResponse out;
            out.xid = xid;
            out.code = r.status.code();
            out.zxid = r.zxid;
            respond(conn_id, out);
          },
          /*session=*/0, /*cxid=*/0, ingress_ns);
      return;  // reply happens when the config txn commits
    }
    case ClientOpKind::kConfig: {
      const ClusterConfig& c = tree_->node().cluster_config();
      const std::string text = cluster_config_json(c);
      resp.data.assign(text.begin(), text.end());
      auto addr_of = [&c](NodeId n) {
        auto it = c.addrs.find(n);
        return it == c.addrs.end() ? std::string() : it->second;
      };
      for (const NodeId v : c.voters) {
        resp.paths.push_back(std::to_string(v) + ":voter:" + addr_of(v));
      }
      for (const NodeId o : c.observers) {
        resp.paths.push_back(std::to_string(o) + ":observer:" + addr_of(o));
      }
      resp.zxid = c.config_zxid;
      resp.is_leader = tree_->node().is_active_leader();
      break;
    }
    case ClientOpKind::kCloseSession: {
      const std::uint64_t sid = session_of(conn_id);
      if (sid == 0) {
        resp.code = Code::kSessionExpired;
        break;
      }
      const std::uint64_t xid = req.xid;
      conn_session_.erase(conn_id);
      tree_->close_session(sid, [this, conn_id, xid](const OpResult& r) {
        ClientResponse out;
        out.xid = xid;
        out.code = r.status.code();
        out.zxid = r.zxid;
        respond(conn_id, out);
      });
      return;  // reply happens at commit time
    }
  }
  respond(conn_id, resp);
}

}  // namespace zab::pb
