#include "pb/replicated_tree.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"

namespace zab::pb {

ReplicatedTree::ReplicatedTree(ZabNode& node)
    : node_(&node), tracker_(node.config().heartbeat_interval) {
  node_->add_deliver_handler([this](const Txn& t) { on_deliver(t); });
  node_->set_request_handler([this](Bytes payload) {
    handle_request(std::move(payload));
  });
  node_->set_leader_tick_handler([this] { leader_tick(); });
  node_->set_snapshot_provider([this] { return tree_.serialize(); });
  node_->add_snapshot_installer([this](Zxid, const Bytes& state) {
    if (Status st = tree_.deserialize(state); !st.is_ok()) {
      ZAB_ERROR() << "tree snapshot install failed: " << st.to_string();
    }
    tracker_valid_ = false;  // leases restart from the installed table
    g_sessions_active_->set(static_cast<std::int64_t>(tree_.sessions().size()));
  });
  node_->add_state_handler([this](Role r, Epoch) {
    // Speculative state is a leader-only concept; drop it on any role
    // change (a new leadership rebuilds it from fresh requests). The expiry
    // tracker is rebuilt lazily on the first leader tick, granting every
    // session a full fresh lease (clients get one whole timeout to find the
    // new primary).
    if (r != Role::kLeading) outstanding_.clear();
    tracker_valid_ = false;
    pending_sessions_.clear();
    closing_sessions_.clear();
    // Leaving the broadcast phase: a write forwarded to the old leader may
    // have died with it, and nothing else would answer. A retriable answer
    // makes the client replay under the same cxid, and the committed
    // (session, cxid) record keeps the write exactly-once.
    while (r == Role::kLooking && !pending_.empty()) {
      fail_pending(pending_.begin()->first,
                   Status::not_ready("left the broadcast phase"));
    }
  });
  auto& m = node_->metrics();
  c_sessions_created_ = &m.counter("zab.sessions.created");
  c_sessions_expired_ = &m.counter("zab.sessions.expired");
  c_sessions_reattached_ = &m.counter("zab.sessions.reattached");
  g_sessions_active_ = &m.gauge("zab.sessions.active");
}

// --- Client API ------------------------------------------------------------------

void ReplicatedTree::create(const std::string& path, Bytes data, ResultFn cb,
                            bool sequential) {
  Op op;
  op.type = OpType::kCreate;
  op.path = path;
  op.data = std::move(data);
  op.sequential = sequential;
  submit(std::move(op), std::move(cb));
}

void ReplicatedTree::set_data(const std::string& path, Bytes data,
                              std::int64_t expected_version, ResultFn cb) {
  Op op;
  op.type = OpType::kSetData;
  op.path = path;
  op.data = std::move(data);
  op.expected_version = expected_version;
  submit(std::move(op), std::move(cb));
}

void ReplicatedTree::remove(const std::string& path,
                            std::int64_t expected_version, ResultFn cb) {
  Op op;
  op.type = OpType::kDelete;
  op.path = path;
  op.expected_version = expected_version;
  submit(std::move(op), std::move(cb));
}

void ReplicatedTree::submit(Op op, ResultFn cb, std::uint64_t session,
                            std::uint64_t cxid, std::int64_t ingress_ns) {
  std::vector<Op> ops;
  ops.push_back(std::move(op));
  submit_multi(std::move(ops), std::move(cb), session, cxid, ingress_ns);
}

void ReplicatedTree::create_session(std::uint32_t timeout_ms, ResultFn cb) {
  Op op;
  op.type = OpType::kCreateSession;
  op.timeout_ms = timeout_ms;
  submit(std::move(op), std::move(cb));
}

void ReplicatedTree::attach_session(std::uint64_t session, ResultFn cb) {
  Op op;
  op.type = OpType::kTouchSession;
  submit(std::move(op), std::move(cb), session);
}

void ReplicatedTree::touch_session(std::uint64_t session) {
  if (session == 0) return;
  if (node_->is_active_leader()) {
    if (tracker_valid_) tracker_.touch(session, node_->env().now());
    return;
  }
  // Forward a fire-and-forget lease refresh to the primary. req_id 0 marks
  // it: the leader refreshes the tracker and broadcasts nothing.
  OpRequest req;
  req.origin = node_->id();
  req.req_id = 0;
  req.session_id = session;
  Op op;
  op.type = OpType::kTouchSession;
  req.ops.push_back(std::move(op));
  (void)node_->submit(encode_op_request(req));
}

void ReplicatedTree::sync_barrier(ResultFn cb) {
  Op op;
  op.type = OpType::kSync;
  submit(std::move(op), std::move(cb));
}

void ReplicatedTree::reconfig(const ReconfigRequest& rc, ResultFn cb) {
  Op op;
  op.type = OpType::kReconfig;
  op.data = encode_reconfig_request(rc);
  submit(std::move(op), std::move(cb));
}

void ReplicatedTree::close_session(std::uint64_t session, ResultFn cb) {
  Op op;
  op.type = OpType::kCloseSession;
  submit(std::move(op), std::move(cb), session);
}

bool ReplicatedTree::session_alive(std::uint64_t session) const {
  if (session == 0 || closing_sessions_.count(session) != 0) return false;
  return tree_.has_session(session) || pending_sessions_.count(session) != 0;
}

void ReplicatedTree::submit_multi(std::vector<Op> ops, ResultFn cb,
                                  std::uint64_t session, std::uint64_t cxid,
                                  std::int64_t ingress_ns) {
  const std::uint64_t req_id = next_req_id_++;
  OpRequest req{node_->id(), req_id, session, cxid, std::move(ops)};
  req.ingress_ns = ingress_ns;
  if (cb) pending_[req_id] = std::move(cb);

  if (node_->is_active_leader()) {
    handle_request(encode_op_request(req));
    return;
  }
  const Status st = node_->submit(encode_op_request(req));
  if (!st.is_ok()) fail_pending(req_id, st);
}

void ReplicatedTree::fail_pending(std::uint64_t req_id, const Status& st) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  const ResultFn cb = std::move(it->second);
  pending_.erase(it);
  OpResult res;
  res.status = st;
  cb(res);
}

// --- Primary-side request execution ------------------------------------------------

void ReplicatedTree::handle_request(Bytes payload) {
  auto req = decode_op_request(payload);
  if (!req.is_ok()) {
    ZAB_WARN() << "dropping malformed request";
    return;
  }
  const OpRequest& r = req.value();

  // req_id 0: fire-and-forget lease refresh (a PING forwarded by a peer).
  // Touch the expiry tracker; nothing is broadcast and nothing is answered.
  if (r.req_id == 0) {
    if (r.session_id != 0 && tracker_valid_) {
      tracker_.touch(r.session_id, node_->env().now());
    }
    return;
  }
  // Any session-stamped request is evidence of client liveness.
  if (r.session_id != 0 && tracker_valid_) {
    tracker_.touch(r.session_id, node_->env().now());
  }

  // Membership changes do not touch the tree: resolve the delta against the
  // node's active cluster config and hand off to the zab layer. Never part
  // of a multi — a reconfig txn is its own envelope on the wire.
  if (r.ops.size() == 1 && r.ops.front().type == OpType::kReconfig) {
    handle_reconfig(r);
    return;
  }

  // Execute every op against (applied state + outstanding changes + the
  // effects of earlier ops in this request). All-or-nothing: the first
  // failure turns the whole request into one error txn whose new_version
  // smuggles the failing index.
  Overlay overlay;
  std::vector<TreeTxn> subs;
  TreeTxn out;
  bool failed = false;
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    TreeTxn t = prep(r.ops[i], r.origin, r.req_id, r.session_id, overlay);
    if (t.kind == TxnKind::kError) {
      t.new_version = static_cast<std::uint32_t>(i);  // failing sub-op index
      out = std::move(t);
      failed = true;
      break;
    }
    subs.push_back(std::move(t));
  }
  if (!failed) {
    if (subs.size() == 1) {
      out = std::move(subs.front());
    } else {
      out.kind = TxnKind::kMulti;
      out.origin = r.origin;
      out.req_id = r.req_id;
      out.data = encode_sub_txns(subs);
    }
  }
  // Stamp the submitting session so replicas can record the outcome for
  // replay dedup (and so the error path reports against the right session).
  out.session = r.session_id;
  out.cxid = r.cxid;

  const auto res = node_->broadcast(encode_tree_txn(out));
  if (res.is_ok()) {
    // Fill the span broadcast() just seeded with the client's identity.
    std::uint32_t payload_bytes = 0;
    for (const Op& op : r.ops) {
      payload_bytes += static_cast<std::uint32_t>(op.data.size());
    }
    node_->annotate_op_span(res.value(), r.session_id, r.cxid, r.ingress_ns,
                            static_cast<std::uint8_t>(r.ops.front().type),
                            r.ops.front().path, payload_bytes);
  }
  if (!res.is_ok()) {
    // Back-pressure or leadership lost mid-call: the origin's retry loop
    // handles it. Complete locally if the request was ours.
    if (r.origin == node_->id()) fail_pending(r.req_id, res.status());
    return;
  }

  // Record speculative effects so later requests see them until delivery.
  if (!failed) {
    if (out.kind == TxnKind::kMulti) {
      for (const TreeTxn& sub : subs) {
        record_outstanding_for(sub, overlay);
        record_session_effects(sub);
      }
    } else {
      record_outstanding_for(out, overlay);
      record_session_effects(out);
    }
  }
}

void ReplicatedTree::handle_reconfig(const OpRequest& r) {
  // A rejected reconfig answers through the pipeline as a kError txn, like
  // a failed write precondition: remote origins get their callback from the
  // committed error, and the order of answer vs. competing reconfigs is the
  // zxid order everyone agrees on.
  auto reject = [this, &r](Code code) {
    TreeTxn err;
    err.kind = TxnKind::kError;
    err.origin = r.origin;
    err.req_id = r.req_id;
    err.session = r.session_id;
    err.cxid = r.cxid;
    err.error = code;
    const auto res = node_->broadcast(encode_tree_txn(err));
    if (!res.is_ok() && r.origin == node_->id()) {
      fail_pending(r.req_id, res.status());
    }
  };

  auto req = decode_reconfig_request(r.ops.front().data);
  if (!req.is_ok()) {
    reject(Code::kInvalidArgument);
    return;
  }
  const ReconfigRequest& rc = req.value();
  ClusterConfig target = node_->cluster_config();
  switch (rc.action) {
    case ReconfigAction::kAddVoter:
      if (rc.node == kNoNode) {
        reject(Code::kInvalidArgument);
        return;
      }
      if (target.is_voter(rc.node)) {
        reject(Code::kExists);
        return;
      }
      std::erase(target.observers, rc.node);  // observer promotion
      target.voters.push_back(rc.node);
      if (!rc.addr.empty()) target.addrs[rc.node] = rc.addr;
      break;
    case ReconfigAction::kAddObserver:
      if (rc.node == kNoNode) {
        reject(Code::kInvalidArgument);
        return;
      }
      if (target.is_member(rc.node)) {
        reject(Code::kExists);
        return;
      }
      target.observers.push_back(rc.node);
      if (!rc.addr.empty()) target.addrs[rc.node] = rc.addr;
      break;
    case ReconfigAction::kRemove:
      if (!target.is_member(rc.node)) {
        reject(Code::kNotFound);
        return;
      }
      if (target.is_voter(rc.node) && target.voters.size() == 1) {
        reject(Code::kInvalidArgument);  // never remove the last voter
        return;
      }
      std::erase(target.voters, rc.node);
      std::erase(target.observers, rc.node);
      target.addrs.erase(rc.node);
      break;
  }

  const auto res = node_->propose_reconfig(std::move(target), r.origin,
                                           r.req_id);
  if (!res.is_ok() && r.origin == node_->id()) {
    // Leadership lost mid-call or another reconfig in flight: a remote
    // origin's client retries via its own timeout, ours completes now.
    fail_pending(r.req_id, res.status());
  }
}

void ReplicatedTree::record_session_effects(const TreeTxn& sub) {
  switch (sub.kind) {
    case TxnKind::kCreateSession:
      // Attachable immediately: a client may reconnect and re-attach before
      // the create txn is applied locally.
      pending_sessions_.insert(sub.owner);
      if (tracker_valid_) {
        tracker_.add(sub.owner, sub.timeout_ms, node_->env().now());
      }
      break;
    case TxnKind::kCloseSession:
      // The close is ordered; attaches and touches arriving after this
      // point lose the race, deterministically on every replica.
      closing_sessions_.insert(sub.owner);
      tracker_.remove(sub.owner);
      break;
    default:
      break;
  }
}

ReplicatedTree::ChangeRecord ReplicatedTree::speculative(
    const std::string& path, const Overlay& overlay) const {
  if (auto it = overlay.find(path); it != overlay.end()) return it->second;
  if (auto it = outstanding_.find(path); it != outstanding_.end()) {
    return it->second;
  }
  ChangeRecord rec;
  auto st = tree_.stat(path);
  if (st.is_ok()) {
    rec.exists = true;
    rec.version = st.value().version;
    rec.cversion = st.value().cversion;
    rec.owner = st.value().ephemeral_owner;
  }
  return rec;
}

void ReplicatedTree::note_outstanding(const std::string& path,
                                      const ChangeRecord& cr) {
  auto& slot = outstanding_[path];
  const std::uint32_t count = slot.outstanding + 1;
  slot = cr;
  slot.outstanding = count;
}

void ReplicatedTree::record_outstanding_for(const TreeTxn& sub,
                                            const Overlay& overlay) {
  auto from_overlay = [this, &overlay](const std::string& p) {
    return speculative(p, overlay);
  };
  switch (sub.kind) {
    case TxnKind::kCreate:
    case TxnKind::kDelete:
      note_outstanding(sub.path, from_overlay(sub.path));
      note_outstanding(DataTree::parent_of(sub.path),
                       from_overlay(DataTree::parent_of(sub.path)));
      break;
    case TxnKind::kSetData:
      note_outstanding(sub.path, from_overlay(sub.path));
      break;
    default:
      break;
  }
}

void ReplicatedTree::release_outstanding_for(const TreeTxn& sub) {
  auto release = [this](const std::string& path) {
    auto it = outstanding_.find(path);
    if (it == outstanding_.end()) return;
    if (--it->second.outstanding == 0) outstanding_.erase(it);
  };
  switch (sub.kind) {
    case TxnKind::kCreate:
    case TxnKind::kDelete:
      release(sub.path);
      release(DataTree::parent_of(sub.path));
      break;
    case TxnKind::kSetData:
      release(sub.path);
      break;
    default:
      break;
  }
}

TreeTxn ReplicatedTree::prep(const Op& op, NodeId origin,
                             std::uint64_t req_id, std::uint64_t session,
                             Overlay& overlay) {
  TreeTxn txn;
  txn.origin = origin;
  txn.req_id = req_id;
  txn.path = op.path;
  auto fail = [&txn](Code code) {
    txn.kind = TxnKind::kError;
    txn.error = code;
    return txn;
  };

  switch (op.type) {
    case OpType::kCreate: {
      if (!DataTree::valid_path(op.path) || op.path == "/") {
        return fail(Code::kInvalidArgument);
      }
      if (op.ephemeral) {
        if (session == 0) {
          return fail(Code::kInvalidArgument);  // ephemeral requires a session
        }
        // The owner must be a live *registered* session: its ephemerals are
        // reaped by that session's kCloseSession, so an unknown owner would
        // leak the znode forever.
        if (!session_alive(session)) return fail(Code::kSessionExpired);
      }
      const std::string parent = DataTree::parent_of(op.path);
      ChangeRecord prec = speculative(parent, overlay);
      if (!prec.exists) return fail(Code::kNotFound);
      if (prec.owner != 0) {
        return fail(Code::kInvalidArgument);  // ephemerals have no children
      }
      std::string final_path = op.path;
      if (op.sequential) {
        // ZooKeeper derives the suffix from the parent's cversion: unique,
        // monotonic, and deterministic once resolved by the primary.
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "%010u", prec.cversion);
        final_path += suffix;
      }
      if (speculative(final_path, overlay).exists) return fail(Code::kExists);
      txn.kind = TxnKind::kCreate;
      txn.path = final_path;
      txn.data = op.data;
      txn.owner = op.ephemeral ? session : 0;
      // Fold effects into the overlay for later ops in this request.
      overlay[final_path] = ChangeRecord{true, 0, 0, txn.owner, 0};
      ++prec.cversion;
      overlay[parent] = prec;
      return txn;
    }
    case OpType::kSetData: {
      ChangeRecord rec = speculative(op.path, overlay);
      if (!rec.exists) return fail(Code::kNotFound);
      if (op.expected_version >= 0 &&
          static_cast<std::uint32_t>(op.expected_version) != rec.version) {
        return fail(Code::kBadVersion);
      }
      txn.kind = TxnKind::kSetData;
      txn.data = op.data;
      txn.new_version = rec.version + 1;
      rec.version = txn.new_version;
      overlay[op.path] = rec;
      return txn;
    }
    case OpType::kDelete: {
      ChangeRecord rec = speculative(op.path, overlay);
      if (!rec.exists) return fail(Code::kNotFound);
      if (op.expected_version >= 0 &&
          static_cast<std::uint32_t>(op.expected_version) != rec.version) {
        return fail(Code::kBadVersion);
      }
      auto kids = tree_.get_children(op.path);
      if (kids.is_ok() && !kids.value().empty()) {
        return fail(Code::kInvalidArgument);  // non-empty node
      }
      txn.kind = TxnKind::kDelete;
      ChangeRecord parent = speculative(DataTree::parent_of(op.path), overlay);
      ++parent.cversion;
      overlay[DataTree::parent_of(op.path)] = parent;
      overlay[op.path] = ChangeRecord{false, 0, 0, 0, 0};
      return txn;
    }
    case OpType::kCloseSession: {
      if (session == 0) return fail(Code::kInvalidArgument);
      if (!session_alive(session)) return fail(Code::kSessionExpired);
      txn.kind = TxnKind::kCloseSession;
      txn.owner = session;
      txn.path.clear();
      return txn;
    }
    case OpType::kCreateSession: {
      txn.kind = TxnKind::kCreateSession;
      txn.owner = alloc_session_id();
      txn.timeout_ms = clamp_timeout(op.timeout_ms);
      txn.path.clear();
      return txn;
    }
    case OpType::kSync: {
      // Pure ordering barrier: no preconditions, no state change. Its zxid
      // is the fence — everything committed before the sync is ordered (and
      // therefore applied on every replica) before this txn delivers.
      txn.kind = TxnKind::kSyncBarrier;
      txn.path.clear();
      return txn;
    }
    case OpType::kTouchSession: {
      // Re-attach / liveness through the pipeline. Losing the race against
      // an ordered kCloseSession fails here — before broadcasting — so the
      // client gets kSessionExpired instead of a phantom attach.
      if (session == 0 || !session_alive(session)) {
        return fail(Code::kSessionExpired);
      }
      if (tracker_valid_) tracker_.touch(session, node_->env().now());
      txn.kind = TxnKind::kTouchSession;
      txn.owner = session;
      txn.path.clear();
      return txn;
    }
    case OpType::kReconfig:
      // A membership change travels alone (see submit); inside a
      // multi-op write it is a malformed request.
      return fail(Code::kInvalidArgument);
  }
  return fail(Code::kInternal);
}

std::uint64_t ReplicatedTree::alloc_session_id() {
  // High half = the epoch this primary established: a later primary always
  // runs a strictly larger epoch, so ids never collide across leaders. The
  // counter is never reset — ids also stay unique when the same node leads
  // several epochs.
  return (static_cast<std::uint64_t>(node_->epoch()) << 32) |
         ++session_counter_;
}

std::uint32_t ReplicatedTree::clamp_timeout(std::uint32_t requested_ms) const {
  // Lower bound: the expiry clock ticks at heartbeat cadence, so anything
  // under two ticks would expire before a client could ever refresh it.
  const auto min_ms = static_cast<std::uint32_t>(
      2 * (node_->config().heartbeat_interval / millis(1)));
  constexpr std::uint32_t kMaxMs = 600'000;  // 10 minutes
  if (requested_ms < min_ms) return min_ms;
  if (requested_ms > kMaxMs) return kMaxMs;
  return requested_ms;
}

// --- Leader expiry clock ---------------------------------------------------------

void ReplicatedTree::leader_tick() {
  const TimePoint now = node_->env().now();
  if (!tracker_valid_) rebuild_tracker(now);
  for (std::uint64_t id : tracker_.take_expired(now)) {
    if (closing_sessions_.count(id) != 0) continue;
    c_sessions_expired_->add();
    // The close travels the broadcast pipeline, so every replica deletes
    // this session's ephemerals at the same zxid.
    close_session(id, nullptr);
  }
}

void ReplicatedTree::rebuild_tracker(TimePoint now) {
  // First tick of a new leadership: every replicated session gets a full
  // fresh lease, giving clients of the old primary one whole timeout to
  // find us and re-attach.
  tracker_.clear();
  for (const auto& [id, info] : tree_.sessions()) {
    tracker_.add(id, info.timeout_ms, now);
  }
  tracker_valid_ = true;
}

// --- Replica-side apply ---------------------------------------------------------------

void ReplicatedTree::on_deliver(const Txn& txn) {
  // Reconfig txns are zab-layer envelopes, not TreeTxns: the node applied
  // the new config before running deliver handlers, so all that is left
  // here is answering the origin's client.
  if (auto rc = try_decode_reconfig_txn(txn.data)) {
    if (rc->origin == node_->id() && rc->req_id != 0) {
      auto it = pending_.find(rc->req_id);
      if (it != pending_.end()) {
        OpResult res;
        res.status = Status::ok();
        res.zxid = txn.zxid;
        it->second(res);
        pending_.erase(it);
      }
    }
    return;
  }
  auto decoded = decode_tree_txn(txn.data);
  if (!decoded.is_ok()) {
    ZAB_WARN() << "undecodable txn at " << to_string(txn.zxid)
               << " (not a TreeTxn?)";
    return;
  }
  const TreeTxn& t = decoded.value();
  apply(t, txn.zxid);
  note_session_txn(t, txn.zxid);

  // Release speculative records on the (current or former) primary.
  if (t.kind == TxnKind::kMulti) {
    if (auto subs = decode_sub_txns(t.data); subs.is_ok()) {
      for (const TreeTxn& sub : subs.value()) release_outstanding_for(sub);
    }
  } else {
    release_outstanding_for(t);
  }

  // Complete the client callback at the origin, then stamp the reply on the
  // op's span: the reply (if any) has been written by the callback chain.
  if (t.origin == node_->id()) {
    complete(t, txn.zxid,
             t.kind == TxnKind::kError ? Status(t.error, "op failed")
                                       : Status::ok());
    node_->finish_op_span(txn.zxid);
  }
}

void ReplicatedTree::note_session_txn(const TreeTxn& t, Zxid zxid) {
  switch (t.kind) {
    case TxnKind::kCreateSession:
      c_sessions_created_->add();
      pending_sessions_.erase(t.owner);
      // On the leader the speculative lease (granted at broadcast) is
      // refreshed; elsewhere the tracker is invalid and this no-ops.
      if (tracker_valid_) {
        tracker_.add(t.owner, t.timeout_ms, node_->env().now());
      }
      break;
    case TxnKind::kTouchSession:
      c_sessions_reattached_->add();
      if (tracker_valid_) tracker_.touch(t.owner, node_->env().now());
      break;
    case TxnKind::kCloseSession:
      closing_sessions_.erase(t.owner);
      tracker_.remove(t.owner);
      break;
    default:
      break;
  }
  if (t.kind == TxnKind::kCreateSession || t.kind == TxnKind::kTouchSession ||
      t.kind == TxnKind::kCloseSession) {
    g_sessions_active_->set(static_cast<std::int64_t>(tree_.sessions().size()));
  }
  // Record the outcome against (session, cxid) for replay dedup. This runs
  // on every replica, so the answer survives failover; it rides snapshots
  // as part of the session table.
  if (t.session != 0 && t.cxid != 0) {
    const auto code = t.kind == TxnKind::kError
                          ? static_cast<std::uint8_t>(t.error)
                          : static_cast<std::uint8_t>(Code::kOk);
    tree_.note_session_result(t.session, t.cxid, zxid.packed(), code, t.path);
  }
}

void ReplicatedTree::complete(const TreeTxn& t, Zxid zxid,
                              const Status& status) {
  auto it = pending_.find(t.req_id);
  if (it == pending_.end()) return;
  OpResult res;
  res.zxid = zxid;
  res.status = status;
  if (t.kind == TxnKind::kMulti) {
    if (auto subs = decode_sub_txns(t.data); subs.is_ok()) {
      for (const TreeTxn& sub : subs.value()) {
        res.paths.push_back(sub.kind == TxnKind::kCreate ? sub.path : "");
        if (res.path.empty() && sub.kind == TxnKind::kCreate) {
          res.path = sub.path;
        }
      }
    }
  } else {
    res.path = t.path;
    if (t.kind == TxnKind::kError) {
      res.failed_index = static_cast<std::int32_t>(t.new_version);
    }
    if (t.kind == TxnKind::kCreateSession ||
        t.kind == TxnKind::kTouchSession) {
      res.session_id = t.owner;
    }
  }
  it->second(res);
  pending_.erase(it);
}

void ReplicatedTree::apply(const TreeTxn& t, Zxid zxid) {
  if (t.kind == TxnKind::kMulti) {
    auto subs = decode_sub_txns(t.data);
    if (!subs.is_ok()) {
      ZAB_ERROR() << "undecodable multi at " << to_string(zxid);
      return;
    }
    for (const TreeTxn& sub : subs.value()) apply_one(sub, zxid);
    return;
  }
  apply_one(t, zxid);
}

void ReplicatedTree::apply_one(const TreeTxn& t, Zxid zxid) {
  Status st;
  switch (t.kind) {
    case TxnKind::kCreate:
      st = tree_.apply_create(t.path, t.data, zxid, t.owner);
      break;
    case TxnKind::kCloseSession:
      // Deterministic sweep of the session's ephemerals (sorted paths;
      // ephemerals never have children, so every delete succeeds), then the
      // session itself leaves the replicated table — all at this one zxid.
      for (const auto& path : tree_.ephemerals_of(t.owner)) {
        st = tree_.apply_delete(path);
        if (!st.is_ok()) break;
      }
      tree_.remove_session(t.owner);
      break;
    case TxnKind::kCreateSession:
      st = tree_.apply_create_session(t.owner, t.timeout_ms);
      break;
    case TxnKind::kTouchSession:
    case TxnKind::kSyncBarrier:
      break;  // liveness / ordering only; no replica state changes
    case TxnKind::kDelete:
      st = tree_.apply_delete(t.path);
      break;
    case TxnKind::kSetData:
      st = tree_.apply_set_data(t.path, t.data, t.new_version, zxid);
      break;
    case TxnKind::kError:
    case TxnKind::kMulti:
      break;  // no state change / handled by caller
  }
  if (!st.is_ok()) {
    ZAB_ERROR() << "txn apply failed at " << to_string(zxid) << ": "
                << st.to_string();
  }
}

}  // namespace zab::pb
