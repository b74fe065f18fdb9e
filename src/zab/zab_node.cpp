#include "zab/zab_node.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/logging.h"

namespace zab {

ZabNode::ZabNode(ZabConfig cfg, Env& env, storage::ZabStorage& storage,
                 MetricsRegistry* metrics)
    : cfg_(std::move(cfg)),
      env_(&env),
      storage_(&storage),
      owned_metrics_(metrics ? nullptr : std::make_unique<MetricsRegistry>()),
      metrics_(metrics ? metrics : owned_metrics_.get()) {
  assert(cfg_.id != kNoNode);
  assert(cfg_.is_voting(cfg_.id) || cfg_.is_observer(cfg_.id));

  // The constructed member set is config version 0; reconfig txns found in
  // the log/snapshot supersede it (start() rescans).
  seed_config_.voters = cfg_.peers;
  std::sort(seed_config_.voters.begin(), seed_config_.voters.end());
  seed_config_.observers = cfg_.observers;
  std::sort(seed_config_.observers.begin(), seed_config_.observers.end());
  seed_config_.version = 0;
  active_config_ = seed_config_;

  // Resolve every hot-path metric once; references are stable for the
  // registry's lifetime.
  c_proposals_ = &metrics_->counter("zab.leader.proposals");
  c_commits_ = &metrics_->counter("zab.leader.commits");
  c_delivered_ = &metrics_->counter("zab.node.delivered");
  c_elections_ = &metrics_->counter("zab.election.rounds");
  c_msgs_sent_ = &metrics_->counter("zab.node.msgs_sent");
  c_snapshots_ = &metrics_->counter("zab.node.snapshots_taken");
  c_resyncs_ = &metrics_->counter("zab.recovery.resyncs");
  c_sync_trunc_ = &metrics_->counter("zab.recovery.trunc_received");
  c_sync_snap_ = &metrics_->counter("zab.recovery.snap_received");
  g_outstanding_ = &metrics_->gauge("zab.leader.outstanding");
  h_propose_quorum_ = &metrics_->histogram("zab.stage.propose_to_quorum_ack");
  h_propose_commit_ = &metrics_->histogram("zab.stage.propose_to_commit");
  h_commit_deliver_ = &metrics_->histogram("zab.stage.commit_to_deliver");
  h_propose_deliver_ = &metrics_->histogram("zab.stage.propose_to_deliver");
  h_election_ = &metrics_->histogram("zab.election.duration_ns");
  h_recovery_sync_ = &metrics_->histogram("zab.recovery.sync_ns");
  g_election_last_ns_ = &metrics_->gauge("zab.election.last_ns");
  g_recovery_last_ns_ = &metrics_->gauge("zab.recovery.last_sync_ns");
  for (std::size_t i = 0; i < kNumOpStages; ++i) {
    h_op_stage_[i] =
        &metrics_->histogram(std::string("zab.op.stage.") + kOpStageNames[i]);
  }
  h_op_total_ = &metrics_->histogram("zab.op.total_ns");
  g_slowlog_count_ = &metrics_->gauge("zab.slowlog.count");
  g_slowlog_threshold_us_ = &metrics_->gauge("zab.slowlog.threshold_us");
  g_slowlog_threshold_us_->set(slow_log_.threshold_ns() / 1000);
  h_batch_size_ = &metrics_->histogram("zab.batch.propose_txns");
  h_batch_bytes_ = &metrics_->histogram("zab.batch.propose_bytes");
  c_ack_coalesced_ = &metrics_->counter("zab.ack.coalesced");
  c_commit_coalesced_ = &metrics_->counter("zab.commit.coalesced");
  c_stall_commit_ = &metrics_->counter("zab.stall.commit");
  c_stall_lag_ = &metrics_->counter("zab.stall.follower_lag");
  g_commit_stalled_ = &metrics_->gauge("zab.stall.commit_stalled");
  g_synced_followers_ = &metrics_->gauge("zab.quorum.synced_followers");
  g_quorum_healthy_ = &metrics_->gauge("zab.quorum.healthy");
  c_reconfig_proposed_ = &metrics_->counter("zab.reconfig.proposed");
  c_reconfig_committed_ = &metrics_->counter("zab.reconfig.committed");
  c_reconfig_aborted_ = &metrics_->counter("zab.reconfig.aborted");
  h_reconfig_join_sync_ = &metrics_->histogram("zab.reconfig.join_sync_ns");
  g_reconfig_quorum_size_ = &metrics_->gauge("zab.reconfig.quorum_size");
  g_reconfig_version_ = &metrics_->gauge("zab.reconfig.config_version");
  refresh_config_gauges();
}

ZabNode::~ZabNode() = default;

void ZabNode::start() {
  assert(!started_);
  started_ = true;

  // Recover volatile state from stable storage. Entries found in the log
  // are durable by definition. Nothing recovered is delivered yet: whether
  // the logged tail survives is decided by the synchronization phase of the
  // next established epoch (it may be truncated). Application state resumes
  // from the last snapshot; committed txns beyond it are re-delivered, which
  // is safe because Zab transactions are idempotent.
  last_logged_ = storage_->last_zxid();
  last_durable_ = last_logged_;
  if (auto snap = storage_->snapshot()) {
    last_delivered_ = snap->last_included;
    commit_watermark_ = snap->last_included;
    // The on-disk snapshot body may be wrapped with the cluster config that
    // was active when it was taken; installers only ever see the app bytes.
    Bytes app_state;
    (void)unwrap_snapshot_state(snap->state, app_state);
    for (auto& inst : snapshot_installers_) {
      inst(snap->last_included, app_state);
    }
  }
  // One read of the log: the undelivered tail, and the member set to
  // elect under. The LATEST config found in snapshot or log governs, even if
  // its reconfig txn never committed — quorum decisions must never regress
  // to a member set an already-agreed change replaced.
  std::vector<Txn> log = read_whole_log();
  logged_config_ = scan_logged_config(log);
  active_config_ = logged_config_;
  refresh_config_gauges();
  for (Txn& t : log) {
    if (t.zxid > last_delivered_) undelivered_.emplace_back().txn = std::move(t);
  }

  ZAB_INFO() << "node " << cfg_.id << " starting: last_logged="
             << to_string(last_logged_)
             << " acceptedEpoch=" << storage_->accepted_epoch()
             << " currentEpoch=" << storage_->current_epoch();
  trace_.set_epoch(storage_->current_epoch());
  if (active_config_.version != 0) {
    ZAB_INFO() << "node " << cfg_.id << " recovered cluster config "
               << to_string(active_config_);
  }
  arm_watchdog();
  start_election();
}

void ZabNode::shutdown() {
  cancel_phase_timers();
  if (watchdog_timer_ != kNoTimer) {
    env_->cancel_timer(watchdog_timer_);
    watchdog_timer_ = kNoTimer;
  }
}

// --- Observability -----------------------------------------------------------

void ZabNode::trace_stage(Zxid z, trace::Stage s, NodeId who) {
  trace_.record(z, s, who, env_->now());
}

// --- In-flight records ---------------------------------------------------------

std::size_t ZabNode::first_record_after(Zxid z) const {
  const auto it = std::partition_point(
      undelivered_.begin(), undelivered_.end(),
      [z](const InFlightTxn& r) { return r.txn.zxid <= z; });
  return static_cast<std::size_t>(it - undelivered_.begin());
}

ZabNode::InFlightTxn* ZabNode::find_record(Zxid z) {
  const std::size_t i = first_record_after(z);
  if (i == 0 || undelivered_[i - 1].txn.zxid != z) return nullptr;
  return &undelivered_[i - 1];
}

std::size_t ZabNode::outstanding_proposals() const {
  if (!is_active_leader()) return 0;
  return undelivered_.size() - first_record_after(commit_watermark_);
}

// --- Request spans -----------------------------------------------------------

/// Feed a completed span into the per-stage histograms, the slow-op ring and
/// (for tests/benches) the observer hook.
void ZabNode::finalize_op_span(const OpSpan& sp) {
  const OpSpan::Stages d = sp.stages();
  const std::int64_t vals[kNumOpStages] = {d.queue_wait, d.log_fsync,
                                           d.quorum_ack, d.commit,
                                           d.deliver,    d.reply_write};
  for (std::size_t i = 0; i < kNumOpStages; ++i) {
    if (vals[i] >= 0) h_op_stage_[i]->record(static_cast<std::uint64_t>(vals[i]));
  }
  if (const std::int64_t total = sp.total_ns(); total >= 0) {
    h_op_total_->record(static_cast<std::uint64_t>(total));
    if (slow_log_.observe(sp)) {
      g_slowlog_count_->set(static_cast<std::int64_t>(slow_log_.size()));
    }
  }
  if (span_observer_) span_observer_(sp);
}

void ZabNode::annotate_op_span(Zxid z, std::uint64_t session_id,
                               std::uint64_t cxid, std::int64_t ingress_ns,
                               std::uint8_t op_kind, const std::string& path,
                               std::uint32_t payload_bytes) {
  InFlightTxn* r = find_record(z);
  // No span: spans disabled, or the op completed inside broadcast().
  if (!r || r->span.zxid == 0) return;
  OpSpan& sp = r->span;
  sp.session_id = session_id;
  sp.cxid = cxid;
  sp.op_kind = op_kind;
  sp.path = path;
  sp.payload_bytes = payload_bytes;
  if (ingress_ns >= 0) {
    sp.recv_ns = ingress_ns;
    // Back-dated: the frame hit the origin's wire before we saw it here.
    trace_.record(z, trace::Stage::kClientRecv, cfg_.id, ingress_ns);
  }
}

void ZabNode::finish_op_span(Zxid z) {
  InFlightTxn* r = find_record(z);
  if (!r || r->span.zxid == 0) return;
  const TimePoint now = env_->now();
  r->span.reply_ns = now;
  trace_.record(z, trace::Stage::kClientReply, cfg_.id, now);
}

std::uint64_t ZabNode::lag_zxids(Zxid follower_last, Zxid watermark) {
  if (follower_last >= watermark) return 0;
  if (follower_last.epoch == watermark.epoch) {
    return watermark.counter - follower_last.counter;
  }
  // Behind an epoch boundary: at least everything committed in the current
  // epoch (see the declaration's comment).
  return watermark.counter;
}

void ZabNode::arm_watchdog() {
  watchdog_timer_ = env_->set_timer(kWatchdogInterval, [this] {
    watchdog_tick();
    arm_watchdog();
  });
}

/// Health sweep at kWatchdogInterval cadence: detect transactions stuck
/// before COMMIT and voting followers trailing the watermark by more than
/// the configured threshold. Counters bump once per stalled zxid/follower
/// (not per tick); warnings are rate-limited to one per second.
void ZabNode::watchdog_tick() {
  const TimePoint now = env_->now();

  // Live txns still without COMMIT. Records are in zxid order, which is
  // propose order, so the first stalled one is the oldest.
  std::int64_t stalled = 0;
  Zxid oldest_stalled;
  bool new_stall = false;
  for (InFlightTxn& r : undelivered_) {
    const OpSpan& sp = r.span;
    if (sp.propose_ns < 0 || sp.commit_ns >= 0 ||
        now - sp.propose_ns < kStallCommitTimeout) {
      continue;
    }
    if (++stalled == 1) oldest_stalled = r.txn.zxid;
    if (!r.stall_flagged) {
      r.stall_flagged = true;
      c_stall_commit_->add();
      new_stall = true;
    }
  }
  g_commit_stalled_->set(stalled);

  if (role_ == Role::kLeading && activated_) {
    for (const auto& [nid, fs] : followers_) {
      if (!active_config_.is_voter(nid) ||
          fs.stage != FollowerState::Stage::kActive) {
        continue;
      }
      const std::uint64_t lag = lag_zxids(fs.last_zxid, commit_watermark_);
      if (lag > kStallLagZxids) {
        if (lag_stalled_.insert(nid).second) {
          c_stall_lag_->add();
          new_stall = true;
        }
      } else {
        lag_stalled_.erase(nid);
      }
    }
    std::erase_if(lag_stalled_, [this](NodeId n) {
      return followers_.find(n) == followers_.end();
    });
  } else {
    lag_stalled_.clear();
  }

  if (new_stall && (last_stall_log_ < 0 || now - last_stall_log_ >= kSecond)) {
    last_stall_log_ = now;
    ZAB_WARN() << "node " << cfg_.id << ": stall watchdog: "
               << stalled << " txn(s) without COMMIT for >"
               << format_duration(kStallCommitTimeout)
               << (stalled ? " (oldest " + to_string(oldest_stalled) + ")"
                           : std::string())
               << ", " << lag_stalled_.size() << " follower(s) lag-stalled";
  }

  // Flight-recorder publish rides the watchdog cadence: the recorder always
  // holds a bundle at most one interval old, and a NEW stall forces an
  // immediate crash-file dump (the sink decides).
  if (postmortem_sink_) postmortem_sink_(postmortem_bundle(), new_stall);
}

std::string ZabNode::mntr_json() const {
  std::string out = "{";
  out += json::key("node");
  out += '{';
  out += json::key("id") + json::num(std::uint64_t{cfg_.id}) + ',';
  out += json::key("role") + json::str(role_name(role_)) + ',';
  out += json::key("phase") + json::str(phase_name(phase_)) + ',';
  out += json::key("leader") + json::num(std::uint64_t{leader_}) + ',';
  out += json::key("epoch") +
         json::num(std::uint64_t{storage_->current_epoch()}) + ',';
  out += json::key("last_logged") + json::str(to_string(last_logged_)) + ',';
  out += json::key("last_committed") +
         json::str(to_string(commit_watermark_)) + ',';
  out += json::key("last_delivered") +
         json::str(to_string(last_delivered_)) + ',';
  out += json::key("outstanding_proposals") +
         json::num(std::uint64_t{outstanding_proposals()}) + ',';
  out += json::key("pending_appends") +
         json::num(std::uint64_t{pending_appends_});
  out += "},";
  out += json::key("metrics") + metrics_->to_json();
  out += '}';
  return out;
}

ZabNode::Readiness ZabNode::readiness() const {
  if (role_ == Role::kLooking) return {false, "electing"};
  if (role_ == Role::kFollowing) {
    if (phase_ != Phase::kBroadcast) return {false, "syncing"};
    return {true, "ok"};
  }
  // Leading. Count live voting followers directly rather than reading the
  // zab.quorum.healthy gauge: the gauge starts at 0 and only refreshes at
  // heartbeat cadence, so a freshly activated leader would wrongly report
  // quorum-lost for up to one heartbeat.
  if (!activated_ || phase_ != Phase::kBroadcast) {
    return {false, "establishing"};
  }
  const TimePoint now = env_->now();
  std::size_t live = 1;  // self
  for (const auto& [nid, fs] : followers_) {
    if (active_config_.is_voter(nid) &&
        fs.stage == FollowerState::Stage::kActive &&
        now - fs.last_contact <= cfg_.follower_timeout) {
      ++live;
    }
  }
  if (live < quorum()) return {false, "quorum-lost"};
  return {true, "ok"};
}

std::string ZabNode::postmortem_bundle() const {
  const Readiness r = readiness();
  std::string out = "{";
  out += json::key("status") + mntr_json() + ',';
  out += json::key("readiness");
  out += '{';
  out += json::key("ready");
  out += r.ready ? "true," : "false,";
  out += json::key("reason") + json::str(r.reason);
  out += "},";
  out += json::key("pipeline");
  out += '{';
  out += json::key("outstanding_proposals") +
         json::num(std::uint64_t{outstanding_proposals()}) + ',';
  out += json::key("pending_appends") +
         json::num(std::uint64_t{pending_appends_}) + ',';
  out += json::key("undelivered") +
         json::num(std::uint64_t{undelivered_.size()}) + ',';
  out += json::key("commit_watermark") +
         json::str(to_string(commit_watermark_)) + ',';
  out += json::key("last_durable") + json::str(to_string(last_durable_));
  out += "},";
  out += json::key("trace");
  out += '[';
  // Tail only: the full ring can be tens of thousands of events; the crash
  // file wants the moments before death, not the whole history.
  constexpr std::size_t kTraceTail = 64;
  const auto events = trace_.events();
  const std::size_t first =
      events.size() > kTraceTail ? events.size() - kTraceTail : 0;
  for (std::size_t i = first; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    if (i != first) out += ',';
    out += '{';
    out += json::key("zxid") + json::str(to_string(e.zxid)) + ',';
    out += json::key("stage") + json::str(trace::stage_name(e.stage)) + ',';
    out += json::key("node") + json::num(std::uint64_t{e.node}) + ',';
    out += json::key("t_ns") + json::num(std::int64_t{e.t});
    out += '}';
  }
  out += "],";
  out += json::key("slowlog");
  out += '[';
  // The handful of slowest recent ops: a stalled pipeline usually shows up
  // here first, already attributed to its dominant stage.
  const auto slow = slow_log_.entries(8);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    if (i != 0) out += ',';
    out += '{';
    out += json::key("id") + json::num(slow[i].id) + ',';
    out += json::key("total_ns") + json::num(slow[i].total_ns) + ',';
    out += json::key("span") + slow[i].span.to_json();
    out += '}';
  }
  out += "]}";
  return out;
}

std::map<NodeId, std::int64_t> ZabNode::follower_clock_offsets() const {
  std::map<NodeId, std::int64_t> out;
  if (role_ != Role::kLeading) return out;
  for (const auto& [nid, fs] : followers_) {
    if (fs.clock.valid()) out[nid] = fs.clock.offset_ns();
  }
  return out;
}

// --- Message plumbing -----------------------------------------------------------

void ZabNode::send_to(NodeId to, const Message& m) {
  c_msgs_sent_->add();
  env_->send(to, encode_message(m));
}

void ZabNode::broadcast_to_peers(const Message& m) {
  const Bytes wire = encode_message(m);
  for (NodeId p : active_config_.all_members()) {
    if (p == cfg_.id) continue;
    c_msgs_sent_->add();
    env_->send(p, wire);
  }
}

void ZabNode::on_message(NodeId from, std::span<const std::uint8_t> wire) {
  auto decoded = decode_message(wire);
  if (!decoded) {
    ZAB_WARN() << "node " << cfg_.id << ": malformed message from " << from;
    return;
  }

  std::visit(
      [this, from](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, VoteMsg>) {
          on_vote(from, m);
        } else if constexpr (std::is_same_v<T, CEpochMsg>) {
          on_cepoch(from, m);
        } else if constexpr (std::is_same_v<T, NewEpochMsg>) {
          on_new_epoch(from, m);
        } else if constexpr (std::is_same_v<T, AckEpochMsg>) {
          on_ack_epoch(from, m);
        } else if constexpr (std::is_same_v<T, TruncMsg>) {
          on_trunc(from, m);
        } else if constexpr (std::is_same_v<T, SnapMsg>) {
          on_snap(from, std::move(m));
        } else if constexpr (std::is_same_v<T, NewLeaderMsg>) {
          on_new_leader(from, m);
        } else if constexpr (std::is_same_v<T, AckNewLeaderMsg>) {
          on_ack_new_leader(from, m);
        } else if constexpr (std::is_same_v<T, UpToDateMsg>) {
          on_up_to_date(from, m);
        } else if constexpr (std::is_same_v<T, ProposeMsg>) {
          on_propose(from, std::move(m));
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          on_ack(from, m);
        } else if constexpr (std::is_same_v<T, CommitMsg>) {
          on_commit(from, m);
        } else if constexpr (std::is_same_v<T, PingMsg>) {
          on_ping(from, m);
        } else if constexpr (std::is_same_v<T, PongMsg>) {
          on_pong(from, m);
        } else if constexpr (std::is_same_v<T, RequestMsg>) {
          on_request(from, std::move(m));
        } else if constexpr (std::is_same_v<T, ProposeBatchMsg>) {
          on_propose_batch(from, std::move(m));
        }
      },
      std::move(*decoded));
}

// --- Role / phase transitions ------------------------------------------------------

void ZabNode::become(Role r, Phase p) {
  role_ = r;
  phase_ = p;
  for (auto& h : state_handlers_) h(role_, storage_->current_epoch());
}

void ZabNode::cancel_phase_timers() {
  for (TimerId* t : {&finalize_timer_, &rebroadcast_timer_,
                     &follower_liveness_timer_, &discovery_timer_,
                     &heartbeat_timer_, &batch_flush_timer_}) {
    if (*t != kNoTimer) {
      env_->cancel_timer(*t);
      *t = kNoTimer;
    }
  }
}

void ZabNode::go_to_election() {
  cancel_phase_timers();
  leader_ = kNoNode;
  followers_.clear();
  newleader_acks_.clear();
  synced_observers_.clear();
  // A reconfig that never committed dies with the leadership; the ACTIVE
  // config stays — whether the change survives is the next epoch's call
  // (the txn is in storage, so sync replay can still resurrect it).
  if (pending_config_) {
    c_reconfig_aborted_->add();
    pending_config_.reset();
  }
  // Parked txns are outstanding proposals of the epoch we just left; their
  // fate is the next epoch's to decide (they are in storage, so sync replay
  // will resurrect whatever survives).
  batch_.clear();
  batch_bytes_ = 0;
  last_acked_ = Zxid{};
  activated_ = false;
  new_epoch_sent_ = false;
  self_history_durable_ = false;
  establishing_epoch_ = kNoEpoch;
  new_leader_pending_ = false;
  // In-flight stamps and spans refer to proposals whose fate the next epoch
  // decides: the records stay (their txns are logged) but lose them.
  for (InFlightTxn& r : undelivered_) {
    r.span = OpSpan{};
    r.stall_flagged = false;
  }
  // Stall/health state is leadership-scoped: a deposed leader stops
  // advertising quorum health it can no longer observe.
  lag_stalled_.clear();
  g_commit_stalled_->set(0);
  g_synced_followers_->set(0);
  g_quorum_healthy_->set(0);
  start_election();
}

// --- Delivery ----------------------------------------------------------------------

void ZabNode::advance_watermark(Zxid z) {
  raise_watermark(z);
  try_deliver();
}

void ZabNode::raise_watermark(Zxid z) {
  if (z <= commit_watermark_) return;
  // One COMMIT (or PING) watermark covers a whole batch: every live record
  // under it is decided now.
  const TimePoint now = env_->now();
  for (std::size_t i = first_record_after(commit_watermark_);
       i < undelivered_.size() && undelivered_[i].txn.zxid <= z; ++i) {
    InFlightTxn& r = undelivered_[i];
    if (r.span.propose_ns < 0) continue;
    r.span.commit_ns = now;
    trace_.record(r.txn.zxid, trace::Stage::kCommit, cfg_.id, now);
    h_propose_commit_->record(
        static_cast<std::uint64_t>(now - r.span.propose_ns));
  }
  commit_watermark_ = z;
}

void ZabNode::try_deliver() {
  // Delivery is gated on activation (phase 3): during synchronization a
  // follower learns commit watermarks but must not deliver until UPTODATE
  // fixes the initial history of the new epoch.
  if (phase_ != Phase::kBroadcast || delivering_) return;
  delivering_ = true;
  bool delivered = false;
  while (!undelivered_.empty() &&
         undelivered_.front().txn.zxid <= commit_watermark_) {
    // Handlers may append records (re-entering broadcast()); a deque keeps
    // references to its other elements valid across push_back.
    InFlightTxn& r = undelivered_.front();
    const Txn& t = r.txn;
    OpSpan& sp = r.span;
    assert(t.zxid > last_delivered_);
    last_delivered_ = t.zxid;
    ++delivered_since_snapshot_;
    const TimePoint now = env_->now();
    trace_.record(t.zxid, trace::Stage::kDeliver, cfg_.id, now);
    c_delivered_->add();
    if (sp.commit_ns >= 0) {
      h_commit_deliver_->record(static_cast<std::uint64_t>(now - sp.commit_ns));
    }
    if (sp.propose_ns >= 0) {
      h_propose_deliver_->record(
          static_cast<std::uint64_t>(now - sp.propose_ns));
    }
    // Stamp the deliver time BEFORE the handlers run: the origin writes the
    // client reply inside the handler chain (ReplicatedTree completes the
    // waiter, then calls finish_op_span), so the reply follows it.
    sp.deliver_ns = now;
    // Membership changes activate at delivery, before the application
    // handlers run, so every observer of this txn already sees the new
    // member set.
    if (auto rc = try_decode_reconfig_txn(t.data)) {
      apply_cluster_config(rc->config, t.zxid, /*committed=*/true);
    }
    for (auto& h : deliver_handlers_) h(t);
    // The span ends here, with the reply stamped if this node wrote one.
    if (sp.zxid != 0) finalize_op_span(sp);
    undelivered_.pop_front();
    delivered = true;
  }
  delivering_ = false;
  if (delivered) maybe_snapshot();
}

void ZabNode::maybe_snapshot() {
  if (cfg_.snapshot_every == 0 || !snapshot_provider_) return;
  if (delivered_since_snapshot_ < cfg_.snapshot_every) return;
  // The config rides the snapshot: a replica whose whole history got
  // compacted away must still recover the member set it agreed to.
  storage::Snapshot snap{
      last_delivered_,
      wrap_snapshot_state(active_config_, snapshot_provider_())};
  if (Status st = storage_->save_snapshot(snap); !st.is_ok()) {
    ZAB_ERROR() << "node " << cfg_.id << ": snapshot failed: " << st.to_string();
    return;
  }
  // The snapshot carries active_config_, and scan_logged_config() ranks a
  // snapshot's config before the log's, so it wins a tie.
  if (active_config_.version >= logged_config_.version) {
    logged_config_ = active_config_;
  }
  storage_->purge_log(cfg_.log_retain);
  delivered_since_snapshot_ = 0;
  c_snapshots_->add();
}

// --- Dynamic membership -----------------------------------------------------------

void ZabNode::refresh_config_gauges() {
  g_reconfig_quorum_size_->set(
      static_cast<std::int64_t>(active_config_.quorum_size()));
  g_reconfig_version_->set(
      static_cast<std::int64_t>(active_config_.version));
}

void ZabNode::apply_cluster_config(const ClusterConfig& c, Zxid z,
                                   bool committed) {
  if (pending_config_ && pending_config_->zxid <= z) pending_config_.reset();
  if (c.version > active_config_.version) {
    active_config_ = c;
    active_config_.config_zxid = z;
    refresh_config_gauges();
    if (committed) c_reconfig_committed_->add();
    ZAB_INFO() << "node " << cfg_.id << ": cluster config "
               << to_string(active_config_) << " active"
               << (committed ? "" : " (state transfer)");
    for (auto& h : reconfig_handlers_) h(active_config_, z);
  }
  // A config can already be active when it commits: redelivered after a
  // snapshot and replay overlap, or activated by this leader's discovery
  // (logged_config_). The leader's duties below hold either way —
  // the second case is how a leader whose log ended in its own uncommitted
  // removal hands off once that removal commits (PROTOCOL.md §16).
  if (role_ == Role::kLeading && activated_) {
    // Forget members the new config dropped (their heartbeats stop); late
    // joiners not yet in followers_ are unaffected.
    std::erase_if(followers_, [this](const auto& kv) {
      return !active_config_.is_member(kv.first);
    });
    // This runs inside try_deliver, itself possibly inside
    // leader_try_commit: never re-enter those, and never tear down the
    // leadership mid-delivery. A fresh stack re-evaluates both — the commit
    // that activated this config is already on the wire, so a leader that
    // removed itself steps down having done its last duty, and proposals
    // whose joint-quorum window just closed get re-checked.
    env_->set_timer(0, [this] {
      if (role_ != Role::kLeading) return;
      if (!active_config_.is_voter(cfg_.id)) {
        ZAB_INFO() << "node " << cfg_.id
                   << ": removed from voter set by reconfig; stepping down";
        go_to_election();
        return;
      }
      if (is_active_leader()) leader_try_commit(kNoNode);
    });
  }
}

ClusterConfig ZabNode::scan_logged_config(const std::vector<Txn>& log) const {
  ClusterConfig best = seed_config_;
  if (auto snap = storage_->snapshot()) {
    Bytes ignored;
    if (auto snap_cfg = unwrap_snapshot_state(snap->state, ignored)) {
      if (snap_cfg->version > best.version) best = *snap_cfg;
    }
  }
  // Surviving log entries in zxid order; the LAST reconfig wins, committed
  // or not (an uncommitted one may still be resurrected by the next
  // epoch's sync, and quorum decisions must already honor it).
  for (const Txn& t : log) {
    if (auto rc = try_decode_reconfig_txn(t.data)) {
      if (rc->config.version > best.version) best = rc->config;
    }
  }
  return best;
}

std::optional<std::vector<Txn>> ZabNode::read_log(Zxid after) const {
  std::vector<Txn> txns = storage_->entries_in(after, last_logged_);
  // entries_in stops before any part it cannot read back, so the read is
  // whole iff it reaches last_logged_, when the log holds txns past after.
  const bool any =
      after < last_logged_ && storage_->first_logged() <= last_logged_;
  if (any && (txns.empty() || txns.back().zxid != last_logged_)) {
    return std::nullopt;
  }
  return txns;
}

std::vector<Txn> ZabNode::read_whole_log() const {
  auto log = read_log(Zxid::zero());
  if (!log) {
    // Running on part of it would mean a wrong history and member set.
    ZAB_ERROR() << "node " << cfg_.id << ": log does not read back up to "
                << to_string(last_logged_) << "; stopping";
    std::abort();
  }
  return std::move(*log);
}

void ZabNode::note_logged(const Txn& t) {
  if (auto rc = try_decode_reconfig_txn(t.data)) {
    if (rc->config.version > logged_config_.version) {
      logged_config_ = rc->config;
    }
  }
}

Result<Zxid> ZabNode::propose_reconfig(ClusterConfig target, NodeId origin,
                                       std::uint64_t req_id) {
  if (!is_active_leader()) return Status::not_leader();
  if (pending_config_) {
    return Status::not_ready("reconfiguration already in flight");
  }
  if (target.voters.empty()) {
    return Status::not_ready("target config has no voters");
  }
  std::sort(target.voters.begin(), target.voters.end());
  std::sort(target.observers.begin(), target.observers.end());
  target.version = active_config_.version + 1;
  // The txn's zxid is the NEXT zxid broadcast() will assign; stamping it
  // into the config ties the joint-quorum window and vote filtering to the
  // exact point of the change in the total order.
  const Zxid z{establishing_epoch_, next_counter_ + 1};
  target.config_zxid = z;
  // Register the pending window BEFORE broadcasting: with synchronous
  // storage on a single-voter ensemble the whole commit+deliver chain runs
  // inside broadcast(), and apply_cluster_config must find (and clear) it.
  pending_config_ = PendingReconfig{target, z};
  auto res = broadcast(encode_reconfig_txn({target, origin, req_id}));
  if (!res.is_ok()) {
    pending_config_.reset();
    return res;
  }
  assert(res.value() == z);
  c_reconfig_proposed_->add();
  ZAB_INFO() << "node " << cfg_.id << ": proposed reconfig "
             << to_string(target) << " at " << to_string(res.value());
  return res;
}

// --- Durability notifications ---------------------------------------------------------

void ZabNode::note_append_durable(Zxid z) {
  if (z > last_durable_) last_durable_ = z;
  const TimePoint now = env_->now();
  trace_.record(z, trace::Stage::kLogFsync, cfg_.id, now);
  if (InFlightTxn* r = find_record(z)) r->span.fsync_ns = now;

  if (role_ == Role::kLeading) {
    // The leader's own history counts toward the NEWLEADER quorum...
    if (!self_history_durable_ && establishing_epoch_ != kNoEpoch &&
        last_durable_ >= history_end_) {
      self_history_durable_ = true;
      if (active_config_.is_voter(cfg_.id)) newleader_acks_.insert(cfg_.id);
      leader_try_activate();
    }
    // ...and its log write (last_durable_) is its ACK for its own
    // proposals.
    if (activated_ && z.epoch == establishing_epoch_) {
      leader_try_commit(cfg_.id);
    }
    return;
  }

  if (role_ == Role::kFollowing && new_leader_pending_ &&
      pending_appends_ == 0) {
    follower_finish_sync();
  }
}

// --- Client operations ------------------------------------------------------------------

Result<Zxid> ZabNode::broadcast(Bytes op) {
  if (!is_active_leader()) return Status::not_leader();
  if (outstanding_proposals() >= cfg_.max_outstanding) {
    return Status::not_ready("too many outstanding proposals");
  }
  const Zxid z{establishing_epoch_, ++next_counter_};
  Txn txn{z, std::move(op)};

  const TimePoint now = env_->now();
  trace_.record(z, trace::Stage::kPropose, cfg_.id, now);
  c_proposals_->add();

  // Register the record, and park the txn for the wire, BEFORE the append:
  // with synchronous storage the durability callback (our own ACK) fires
  // inside append(), and when that ACK is a quorum (one voter)
  // leader_try_commit() must find the record, and the txn parked, to send
  // its PROPOSE ahead of its COMMIT.
  last_logged_ = z;
  InFlightTxn& r = undelivered_.emplace_back();
  r.txn = txn;
  r.span.propose_ns = now;
  if (spans_enabled_) r.span.zxid = z.packed();
  g_outstanding_->set(static_cast<std::int64_t>(outstanding_proposals()));
  batch_bytes_ += txn_wire_size(txn);
  batch_.push_back(txn);
  if (batch_flush_timer_ == kNoTimer) {
    // Zero delay: every Env runs it right after the current loop turn, so
    // the txns broadcast in one turn travel as one frame.
    batch_flush_timer_ = env_->set_timer(0, [this] {
      batch_flush_timer_ = kNoTimer;
      flush_propose_batch();
    });
  }
  ++pending_appends_;
  note_logged(txn);
  storage_->append(txn, [this, z] {
    --pending_appends_;
    note_append_durable(z);
  });
  if (batch_bytes_ >= kMaxProposeBatchBytes) flush_propose_batch();
  return z;
}

void ZabNode::flush_propose_batch() {
  if (batch_flush_timer_ != kNoTimer) {
    env_->cancel_timer(batch_flush_timer_);
    batch_flush_timer_ = kNoTimer;
  }
  if (batch_.empty()) return;
  h_batch_size_->record(batch_.size());
  h_batch_bytes_->record(batch_bytes_);
  send_to_followers(ProposeBatchMsg{establishing_epoch_, std::move(batch_)},
                    /*syncing=*/true);
  batch_.clear();
  batch_bytes_ = 0;
}

Status ZabNode::submit(Bytes op) {
  if (is_active_leader()) {
    if (request_handler_) {
      request_handler_(std::move(op));
      return Status::ok();
    }
    return broadcast(std::move(op)).status();
  }
  if (role_ == Role::kFollowing && phase_ == Phase::kBroadcast &&
      leader_ != kNoNode) {
    send_to(leader_, RequestMsg{std::move(op)});
    return Status::ok();
  }
  return Status::not_ready("no active leader known");
}

// --- Follower: discovery and synchronization ----------------------------------------------

bool ZabNode::from_current_leader(NodeId from, Epoch epoch) const {
  return role_ == Role::kFollowing && from == leader_ &&
         epoch == storage_->current_epoch() && epoch != kNoEpoch;
}

void ZabNode::follower_begin_discovery(NodeId leader_id) {
  leader_ = leader_id;
  role_ = Role::kFollowing;
  phase_ = Phase::kDiscovery;
  send_to(leader_, CEpochMsg{storage_->accepted_epoch(),
                             storage_->current_epoch(), last_logged_});
  // Re-send CEPOCH while waiting: the prospective leader may not have
  // concluded its own election yet (models ZooKeeper's connection retry).
  if (discovery_timer_ != kNoTimer) env_->cancel_timer(discovery_timer_);
  const TimePoint deadline = env_->now() + kDiscoveryTimeout;
  auto retry = [this, deadline](auto&& self_fn) -> void {
    if (role_ != Role::kFollowing || phase_ != Phase::kDiscovery) return;
    if (env_->now() >= deadline) {
      ZAB_DEBUG() << "node " << cfg_.id << ": discovery timed out";
      go_to_election();
      return;
    }
    send_to(leader_, CEpochMsg{storage_->accepted_epoch(),
                               storage_->current_epoch(), last_logged_});
    discovery_timer_ = env_->set_timer(
        kElectionRebroadcast, [this, self_fn] { self_fn(self_fn); });
  };
  discovery_timer_ = env_->set_timer(kElectionRebroadcast,
                                     [this, retry] { retry(retry); });
}

void ZabNode::follower_resync() {
  // The stream from the leader had a gap (models a broken TCP connection):
  // rejoin the same leader through discovery.
  c_resyncs_->add();
  ZAB_DEBUG() << "node " << cfg_.id << ": resync with leader " << leader_;
  cancel_phase_timers();
  new_leader_pending_ = false;
  follower_begin_discovery(leader_);
}

void ZabNode::on_new_epoch(NodeId from, const NewEpochMsg& m) {
  if (role_ != Role::kFollowing || phase_ != Phase::kDiscovery ||
      from != leader_) {
    return;
  }
  if (m.epoch < storage_->accepted_epoch()) {
    // Paper: a NEWEPOCH older than our promise means this leader lost; we
    // must not go backwards.
    go_to_election();
    return;
  }
  if (Status st = storage_->set_accepted_epoch(m.epoch); !st.is_ok()) {
    ZAB_ERROR() << "persist acceptedEpoch failed: " << st.to_string();
    return;
  }
  phase_ = Phase::kSynchronization;
  send_to(leader_, AckEpochMsg{storage_->current_epoch(), last_logged_});

  // Re-arm the phase deadline for synchronization.
  if (discovery_timer_ != kNoTimer) env_->cancel_timer(discovery_timer_);
  discovery_timer_ = env_->set_timer(kSyncTimeout, [this] {
    if (role_ == Role::kFollowing && phase_ == Phase::kSynchronization) {
      ZAB_DEBUG() << "node " << cfg_.id << ": synchronization timed out";
      go_to_election();
    }
  });
}

void ZabNode::on_trunc(NodeId from, const TruncMsg& m) {
  if (role_ != Role::kFollowing || phase_ != Phase::kSynchronization ||
      from != leader_ || m.epoch != storage_->accepted_epoch()) {
    return;
  }
  c_sync_trunc_->add();
  assert(m.truncate_to >= commit_watermark_ &&
         "protocol violation: committed txn truncated");
  if (Status st = storage_->truncate_after(m.truncate_to); !st.is_ok()) {
    // A cut that failed part way can leave the log shorter than
    // last_logged_ says: running on would chain the next DIFF onto txns the
    // log no longer holds. Stop; a restart recovers from the files.
    ZAB_ERROR() << "node " << cfg_.id << ": truncate failed: "
                << st.to_string() << "; stopping";
    std::abort();
  }
  last_logged_ = storage_->last_zxid();
  last_durable_ = std::min(last_durable_, last_logged_);
  while (!undelivered_.empty() &&
         undelivered_.back().txn.zxid > m.truncate_to) {
    undelivered_.pop_back();
  }
  if (logged_config_.config_zxid > m.truncate_to) {
    logged_config_ = scan_logged_config(read_whole_log());
  }
  if (active_config_.config_zxid > m.truncate_to) {
    // The reconfig txn our config came from belonged to the abandoned
    // branch; fall back to the latest config the surviving history carries.
    active_config_ = logged_config_;
    refresh_config_gauges();
  }
}

void ZabNode::on_snap(NodeId from, SnapMsg m) {
  if (role_ != Role::kFollowing || phase_ != Phase::kSynchronization ||
      from != leader_ || m.epoch != storage_->accepted_epoch()) {
    return;
  }
  c_sync_snap_->add();
  storage::Snapshot snap{m.last_included, std::move(m.state)};
  if (Status st = storage_->install_snapshot(snap); !st.is_ok()) {
    // Like a failed TRUNC: the log may be partly removed.
    ZAB_ERROR() << "node " << cfg_.id << ": snapshot install failed: "
                << st.to_string() << "; stopping";
    std::abort();
  }
  // The wire body is stored verbatim (so a later re-sync ships it onward
  // unchanged); installers get the unwrapped app bytes, and the config the
  // leader wrapped in becomes ours — full state transfer covers membership.
  Bytes app_state;
  const auto snap_cfg = unwrap_snapshot_state(snap.state, app_state);
  logged_config_ = seed_config_;  // the log is gone
  if (snap_cfg) {
    if (snap_cfg->version > logged_config_.version) logged_config_ = *snap_cfg;
    apply_cluster_config(*snap_cfg, snap.last_included, /*committed=*/false);
  }
  for (auto& inst : snapshot_installers_) {
    inst(snap.last_included, app_state);
  }
  undelivered_.clear();
  last_logged_ = snap.last_included;
  last_durable_ = snap.last_included;
  last_delivered_ = snap.last_included;
  delivered_since_snapshot_ = 0;
  if (snap.last_included > commit_watermark_) {
    commit_watermark_ = snap.last_included;
  }
}

void ZabNode::on_new_leader(NodeId from, const NewLeaderMsg& m) {
  if (role_ != Role::kFollowing || phase_ != Phase::kSynchronization ||
      from != leader_) {
    return;
  }
  if (m.epoch != storage_->accepted_epoch()) {
    // We promised a different epoch in between; this leader is stale.
    go_to_election();
    return;
  }
  if (last_logged_ != m.history_end) {
    // The sync stream had a hole (lost TRUNC/SNAP/entry): accepting the
    // epoch now would let the leader count an incomplete history toward
    // its quorum. Start the sync over.
    follower_resync();
    return;
  }
  new_leader_pending_ = true;
  pending_new_leader_epoch_ = m.epoch;
  if (pending_appends_ == 0) follower_finish_sync();
}

void ZabNode::follower_finish_sync() {
  // All sync-stream entries are durable: accept the new epoch (sets f.a,
  // the paper's currentEpoch) and ack NEWLEADER.
  new_leader_pending_ = false;
  if (Status st = storage_->set_current_epoch(pending_new_leader_epoch_);
      !st.is_ok()) {
    ZAB_ERROR() << "persist currentEpoch failed: " << st.to_string();
    go_to_election();
    return;
  }
  trace_.set_epoch(pending_new_leader_epoch_);
  // The ACK-dedup watermark is epoch-scoped: the new epoch starts with a
  // clean slate (its zxids restart at counter 1).
  last_acked_ = Zxid{};
  send_to(leader_, AckNewLeaderMsg{pending_new_leader_epoch_});
}

void ZabNode::on_up_to_date(NodeId from, const UpToDateMsg& m) {
  if (!from_current_leader(from, m.epoch) ||
      phase_ != Phase::kSynchronization) {
    return;
  }
  if (discovery_timer_ != kNoTimer) {
    env_->cancel_timer(discovery_timer_);
    discovery_timer_ = kNoTimer;
  }
  last_leader_contact_ = env_->now();
  become(Role::kFollowing, Phase::kBroadcast);
  trace_stage(Zxid{}, trace::Stage::kFollowerActive, cfg_.id);
  if (elected_time_ >= 0) {
    const std::int64_t sync_ns = env_->now() - elected_time_;
    h_recovery_sync_->record(static_cast<std::uint64_t>(sync_ns));
    g_recovery_last_ns_->set(sync_ns);
    elected_time_ = -1;
  }

  // Periodic leader-liveness check.
  auto liveness = [this](auto&& self_fn) -> void {
    if (role_ != Role::kFollowing || phase_ != Phase::kBroadcast) return;
    if (env_->now() - last_leader_contact_ > cfg_.follower_timeout) {
      ZAB_DEBUG() << "node " << cfg_.id << ": leader " << leader_
                  << " timed out";
      go_to_election();
      return;
    }
    follower_liveness_timer_ = env_->set_timer(
        cfg_.heartbeat_interval, [this, self_fn] { self_fn(self_fn); });
  };
  follower_liveness_timer_ = env_->set_timer(
      cfg_.heartbeat_interval, [this, liveness] { liveness(liveness); });

  advance_watermark(m.commit_upto);
}

// --- Follower: broadcast phase ------------------------------------------------------------

void ZabNode::on_propose(NodeId from, ProposeMsg m) {
  // PROPOSE is the sync-replay frame (live proposals travel as PROPOSEBATCH):
  // history replayed during synchronization, covered by ACK-NEWLEADER.
  if (role_ != Role::kFollowing || from != leader_ ||
      phase_ != Phase::kSynchronization ||
      m.epoch != storage_->accepted_epoch()) {
    return;
  }
  // Only accept entries that chain directly onto our log tail: entries from
  // a stale sync stream (a previous attempt that lost messages) cannot
  // silently punch holes into the log.
  if (m.prev != last_logged_) return;
  append_follower_entry(std::move(m.txn), AckMode::kSyncReplay, m.epoch);
}

void ZabNode::on_propose_batch(NodeId from, ProposeBatchMsg m) {
  if (role_ != Role::kFollowing || from != leader_) return;
  // Live proposals: the epoch must already be established on this follower.
  if (m.epoch != storage_->current_epoch() ||
      (phase_ != Phase::kBroadcast && phase_ != Phase::kSynchronization)) {
    return;
  }
  last_leader_contact_ = env_->now();

  // Append the run in one pass. Entries arrive in zxid order, so any
  // duplicates (a sync replay that overlapped a parked batch) form a
  // prefix; once one entry is fresh, every later one must chain on. Only
  // the final entry ACKs — its durability callback fires after all earlier
  // appends completed, so one cumulative ACK covers the whole batch.
  std::size_t appended = 0;
  for (std::size_t i = 0; i < m.txns.size(); ++i) {
    const Zxid z = m.txns[i].zxid;
    if (z <= last_logged_) continue;  // duplicate
    const bool contiguous =
        (z.epoch == last_logged_.epoch &&
         z.counter == last_logged_.counter + 1) ||
        (z.epoch > last_logged_.epoch && z.counter == 1);
    if (!contiguous) {
      follower_resync();  // hole: a previous batch was lost on the wire
      return;
    }
    const bool last = i + 1 == m.txns.size();
    append_follower_entry(std::move(m.txns[i]),
                          last ? AckMode::kLiveAck : AckMode::kLiveNoAck,
                          m.epoch);
    ++appended;
  }
  if (appended > 1) c_ack_coalesced_->add(appended - 1);
}

void ZabNode::append_follower_entry(Txn txn, AckMode mode, Epoch epoch) {
  const Zxid z = txn.zxid;
  InFlightTxn& r = undelivered_.emplace_back();
  r.txn = txn;
  if (mode != AckMode::kSyncReplay) {
    // Live proposal: start this txn's stage clock on the follower too.
    const TimePoint now = env_->now();
    trace_.record(z, trace::Stage::kPropose, cfg_.id, now);
    r.span.propose_ns = now;
    c_proposals_->add();
  }
  last_logged_ = z;
  ++pending_appends_;
  note_logged(txn);
  storage_->append(txn, [this, z, mode, epoch] {
    --pending_appends_;
    note_append_durable(z);
    // The ACK is cumulative: appends complete in order, so last_durable_
    // here covers z and everything before it. The last_acked_ guard drops
    // ACKs that would not advance the leader's view (resync replays).
    if (mode == AckMode::kLiveAck && role_ == Role::kFollowing &&
        leader_ != kNoNode && storage_->current_epoch() == epoch &&
        last_durable_ > last_acked_) {
      send_to(leader_, AckMsg{epoch, last_durable_});
      last_acked_ = last_durable_;
    }
  });
  try_deliver();  // commit may already cover it (watermark from PING)
}

void ZabNode::on_commit(NodeId from, const CommitMsg& m) {
  if (!from_current_leader(from, m.epoch)) return;
  last_leader_contact_ = env_->now();
  if (m.zxid > last_logged_) {
    // Channels are FIFO, so the leader's PROPOSE for a committed zxid must
    // have arrived before its COMMIT — unless it was lost. Re-sync.
    follower_resync();
    return;
  }
  advance_watermark(m.zxid);
}

void ZabNode::on_ping(NodeId from, const PingMsg& m) {
  if (!from_current_leader(from, m.epoch)) return;
  last_leader_contact_ = env_->now();
  if (phase_ == Phase::kBroadcast && m.last_committed > last_logged_) {
    follower_resync();  // missed a proposal (see on_commit)
    return;
  }
  send_to(leader_, PongMsg{m.epoch, last_durable_, m.t_sent, env_->now()});
  advance_watermark(m.last_committed);
}

}  // namespace zab
