// Leader-side protocol logic: Phase 1 (discovery), Phase 2
// (synchronization) and the leader half of Phase 3 (broadcast).
//
// The prospective leader:
//   1. collects CEPOCH from a quorum, picks e' greater than every promised
//      epoch, and proposes it with NEWEPOCH;
//   2. on ACKEPOCH verifies no follower's history is more recent than its
//      own (FLE makes that the common case; if violated it abdicates);
//   3. synchronizes each follower with TRUNC / SNAP / history replay so the
//      follower's log is a prefix-copy of the leader's, then sends
//      NEWLEADER(e');
//   4. once a quorum (counting itself) has durably accepted the history and
//      acked NEWLEADER, it activates: currentEpoch := e', its entire
//      initial history commits, UPTODATE flows out, and broadcast starts.
//
// Followers that arrive late (e.g. restarted replicas) go through the same
// CEPOCH → sync → UPTODATE path against the established epoch, like
// ZooKeeper's per-learner LearnerHandler.
#include <algorithm>
#include <cassert>
#include <string>

#include "common/clock_sync.h"
#include "common/logging.h"
#include "zab/zab_node.h"

namespace zab {

void ZabNode::leader_begin_discovery() {
  // Lead under the latest config found in our log/snapshot, committed or
  // not: if the previous leader got a reconfig durable on a quorum it may
  // already be committed elsewhere, and quorum arithmetic must honor it.
  // Appends keep it current, so this reads no log.
  active_config_ = logged_config_;
  refresh_config_gauges();
  followers_.clear();
  newleader_acks_.clear();
  synced_observers_.clear();
  activated_ = false;
  new_epoch_sent_ = false;
  self_history_durable_ = false;
  establishing_epoch_ = kNoEpoch;
  history_end_ = last_logged_;

  if (discovery_timer_ != kNoTimer) env_->cancel_timer(discovery_timer_);
  discovery_timer_ = env_->set_timer(kDiscoveryTimeout, [this] {
    if (role_ == Role::kLeading && !activated_) {
      ZAB_DEBUG() << "node " << cfg_.id << ": leadership establishment timed out";
      go_to_election();
    }
  });

  leader_try_new_epoch();  // single-node ensembles proceed immediately
}

void ZabNode::on_cepoch(NodeId from, const CEpochMsg& m) {
  if (role_ != Role::kLeading) return;

  FollowerState fs;
  fs.stage = FollowerState::Stage::kDiscovered;
  fs.accepted_epoch = m.accepted_epoch;
  fs.current_epoch = m.current_epoch;
  fs.last_zxid = m.last_zxid;
  fs.last_contact = env_->now();
  // A re-joining follower restarts from scratch, except for its durable
  // acks: its log still holds what it acked, because a leader never
  // truncates its own proposals.
  if (auto it = followers_.find(from); it != followers_.end()) {
    fs.acked = it->second.acked;
  }
  followers_[from] = fs;

  if (new_epoch_sent_) {
    // Epoch already chosen (late CEPOCH or re-join): offer it directly.
    send_to(from, NewEpochMsg{establishing_epoch_});
    return;
  }
  leader_try_new_epoch();
}

void ZabNode::leader_try_new_epoch() {
  if (new_epoch_sent_) return;
  if (followers_.size() + 1 < quorum()) return;  // +1: ourselves

  Epoch max_promised = storage_->accepted_epoch();
  for (const auto& [nid, fs] : followers_) {
    max_promised = std::max(max_promised, fs.accepted_epoch);
  }
  const Epoch e = max_promised + 1;
  if (Status st = storage_->set_accepted_epoch(e); !st.is_ok()) {
    ZAB_ERROR() << "persist acceptedEpoch failed: " << st.to_string();
    go_to_election();
    return;
  }
  establishing_epoch_ = e;
  new_epoch_sent_ = true;
  ZAB_DEBUG() << "node " << cfg_.id << ": proposing NEWEPOCH " << e;

  for (const auto& [nid, fs] : followers_) send_to(nid, NewEpochMsg{e});

  // Our own history counts toward the NEWLEADER quorum once durable; in a
  // single-node ensemble this alone activates the epoch. It counts only
  // while we vote: discovery may have activated a config that excludes us
  // (PROTOCOL.md §16).
  if (last_durable_ >= history_end_) {
    self_history_durable_ = true;
    if (active_config_.is_voter(cfg_.id)) newleader_acks_.insert(cfg_.id);
    leader_try_activate();
  }
}

void ZabNode::on_ack_epoch(NodeId from, const AckEpochMsg& m) {
  if (role_ != Role::kLeading || !new_epoch_sent_) return;
  auto it = followers_.find(from);
  if (it == followers_.end()) return;
  FollowerState& fs = it->second;
  if (fs.stage != FollowerState::Stage::kDiscovered) return;

  fs.stage = FollowerState::Stage::kEpochAcked;
  fs.current_epoch = m.current_epoch;
  fs.last_zxid = m.last_zxid;
  fs.last_contact = env_->now();

  // Safety net: the paper's discovery phase selects the most recent history
  // from the quorum. FLE already made us the most recent; if a follower
  // nevertheless reports a strictly newer *epoch* (possible under
  // partitions and vote loss), leading with our stale history could drop
  // committed txns — abdicate and re-elect. A follower merely ahead within
  // our OWN currentEpoch is different: quorum intersection guarantees every
  // committed txn reached the FLE winner, so its surplus is an uncommitted
  // tail and the sync path TRUNCs it.
  if (!activated_ && fs.current_epoch > storage_->current_epoch()) {
    ZAB_WARN() << "node " << cfg_.id << ": follower " << from
               << " has newer epoch " << fs.current_epoch << "; abdicating";
    go_to_election();
    return;
  }

  leader_sync_follower(from);
}

void ZabNode::leader_sync_follower(NodeId f) {
  FollowerState& fs = followers_.at(f);
  const Zxid sync_end = last_logged_;

  // Find the latest point in OUR history at or below the follower's last
  // zxid. Everything the follower has beyond that point belongs to an
  // abandoned branch and must go (TRUNC); everything we have beyond it is
  // replayed. Proposals are unique per zxid, so logs agree on every zxid
  // both contain and this single point fully determines the diff.
  const Zxid t = storage_->latest_at_or_below(fs.last_zxid);

  // If part of (t, sync_end] has been folded into a snapshot, we cannot
  // replay it entry-by-entry: ship the whole snapshot instead (SNAP).
  const auto snap = storage_->snapshot();
  const bool send_snap = snap && t < snap->last_included;
  const Zxid diff_from = send_snap ? snap->last_included : t;
  // The rest is the DIFF, which the log may read back from its files. Part
  // of a DIFF would leave the follower a hole: a leader that cannot read
  // back its own history does not lead.
  const auto diff = read_log(diff_from);
  if (!diff) {
    ZAB_ERROR() << "node " << cfg_.id << ": log does not read back after "
                << to_string(diff_from) << " to sync follower " << f
                << "; abdicating";
    go_to_election();
    return;
  }

  if (t < fs.last_zxid) send_to(f, TruncMsg{establishing_epoch_, t});
  if (send_snap) {
    send_to(f, SnapMsg{establishing_epoch_, snap->last_included, snap->state});
  }
  Zxid prev = diff_from;
  for (const Txn& txn : *diff) {
    send_to(f, ProposeMsg{establishing_epoch_, prev, txn});
    prev = txn.zxid;
  }
  send_to(f, NewLeaderMsg{establishing_epoch_, sync_end});

  // From this moment every new proposal also flows to f (FIFO order puts
  // them after NEWLEADER), so the stream stays gap-free.
  fs.stage = FollowerState::Stage::kSyncing;
  fs.sync_started = env_->now();
}

void ZabNode::on_ack_new_leader(NodeId from, const AckNewLeaderMsg& m) {
  if (role_ != Role::kLeading || m.epoch != establishing_epoch_) return;
  auto it = followers_.find(from);
  if (it == followers_.end() ||
      it->second.stage != FollowerState::Stage::kSyncing) {
    return;
  }
  it->second.last_contact = env_->now();

  // A learner joining the established epoch (reconfig add) finishes its
  // catch-up here; how long that took bounds the window where the cluster
  // carried the extra sync load.
  if (activated_ && it->second.sync_started >= 0) {
    h_reconfig_join_sync_->record(
        static_cast<std::uint64_t>(env_->now() - it->second.sync_started));
  }

  if (!active_config_.is_voter(from)) {
    // Observers and not-yet-promoted learners never count toward the
    // NEWLEADER quorum.
    if (activated_) {
      leader_activate_follower(from);
    } else {
      synced_observers_.insert(from);
    }
    return;
  }

  newleader_acks_.insert(from);
  if (activated_) {
    leader_activate_follower(from);
  } else {
    leader_try_activate();
  }
}

void ZabNode::leader_try_activate() {
  if (activated_ || role_ != Role::kLeading) return;
  if (newleader_acks_.size() < quorum()) return;

  // Phase 2 complete: a quorum holds our entire initial history durably.
  // The history therefore commits (paper: the new epoch's initial history
  // is delivered before any new proposal), and e' becomes current.
  if (Status st = storage_->set_current_epoch(establishing_epoch_);
      !st.is_ok()) {
    ZAB_ERROR() << "persist currentEpoch failed: " << st.to_string();
    go_to_election();
    return;
  }
  activated_ = true;
  next_counter_ = 0;
  if (discovery_timer_ != kNoTimer) {
    env_->cancel_timer(discovery_timer_);
    discovery_timer_ = kNoTimer;
  }
  ZAB_INFO() << "node " << cfg_.id << ": leading epoch " << establishing_epoch_
             << ", history up to " << to_string(history_end_);

  trace_.set_epoch(establishing_epoch_);
  become(Role::kLeading, Phase::kBroadcast);
  trace_stage(Zxid{}, trace::Stage::kLeaderActive, cfg_.id);
  if (elected_time_ >= 0) {
    const std::int64_t sync_ns = env_->now() - elected_time_;
    h_recovery_sync_->record(static_cast<std::uint64_t>(sync_ns));
    g_recovery_last_ns_->set(sync_ns);
    elected_time_ = -1;
  }
  advance_watermark(history_end_);

  for (auto& [nid, fs] : followers_) {
    if (fs.stage == FollowerState::Stage::kSyncing &&
        (newleader_acks_.count(nid) != 0 ||
         synced_observers_.count(nid) != 0)) {
      leader_activate_follower(nid);
    }
  }
  synced_observers_.clear();

  quorum_ok_since_ = env_->now();
  auto beat = [this](auto&& self_fn) -> void {
    if (role_ != Role::kLeading || !activated_) return;
    leader_heartbeat();
    leader_check_quorum_liveness();
    if (role_ != Role::kLeading) return;  // stepped down in liveness check
    // Application tick (session expiry etc.) runs only on the active
    // leader, after liveness: a leader about to step down must not keep
    // proposing expirations.
    if (leader_tick_handler_) leader_tick_handler_();
    if (role_ != Role::kLeading) return;
    heartbeat_timer_ = env_->set_timer(
        cfg_.heartbeat_interval, [this, self_fn] { self_fn(self_fn); });
  };
  heartbeat_timer_ = env_->set_timer(cfg_.heartbeat_interval,
                                     [this, beat] { beat(beat); });
}

void ZabNode::leader_activate_follower(NodeId f) {
  FollowerState& fs = followers_.at(f);
  send_to(f, UpToDateMsg{establishing_epoch_, commit_watermark_});
  fs.stage = FollowerState::Stage::kActive;
}

// --- Broadcast phase ----------------------------------------------------------

void ZabNode::on_ack(NodeId from, const AckMsg& m) {
  if (role_ != Role::kLeading || !activated_ ||
      m.epoch != establishing_epoch_) {
    return;
  }
  auto it = followers_.find(from);
  if (it == followers_.end()) return;
  FollowerState& fs = it->second;
  fs.last_contact = env_->now();
  if (m.zxid > fs.last_zxid) fs.last_zxid = m.zxid;
  leader_record_acks(from, fs, m.zxid);
}

void ZabNode::leader_record_acks(NodeId from, FollowerState& fs, Zxid upto) {
  // ACKs are cumulative: followers log in order, so durability of `upto`
  // implies durability of every earlier proposal, and one watermark per
  // follower stands for all its acks. This also lets PONGs (which carry the
  // follower's durable watermark) repair ACKs lost on the wire. Acks from
  // non-voters (observers, learners not in a pending config) never count.
  if (!active_config_.is_voter(from) &&
      !(pending_config_ && pending_config_->config.is_voter(from))) {
    return;
  }
  if (upto > fs.acked) fs.acked = upto;
  leader_try_commit(from);
}

// Joint-quorum rule: a proposal at or past a pending reconfig's activation
// zxid must gather a quorum of the NEW voter set in addition to the active
// one. Otherwise a leader could commit the reconfig plus later txns to a
// majority of the old ensemble only, and a successor elected under the new
// config could miss them. Acks from non-voters (observers, learners still
// syncing, departed members) never count.
bool ZabNode::proposal_quorum_met(Zxid z) const {
  const auto met_in = [this, z](const ClusterConfig& c) {
    std::size_t n = 0;
    for (NodeId v : c.voters) {
      if (v == cfg_.id) {
        n += last_durable_ >= z;
      } else if (auto it = followers_.find(v); it != followers_.end()) {
        n += it->second.acked >= z;
      }
    }
    return n >= c.quorum_size();
  };
  if (!met_in(active_config_)) return false;
  return !pending_config_ || z < pending_config_->zxid ||
         met_in(pending_config_->config);
}

void ZabNode::leader_try_commit(NodeId acker) {
  // Drain every quorum-acked head in zxid order (only the head of the
  // pipeline may commit, so followers see a gap-free commit sequence), then
  // announce the final watermark with ONE CommitMsg — on_commit /
  // advance_watermark are cumulative, so a single frame at the last zxid
  // commits the whole run on every follower.
  const TimePoint now = env_->now();
  std::size_t drained = 0;
  Zxid last;
  for (std::size_t i = first_record_after(commit_watermark_);
       i < undelivered_.size(); ++i) {
    InFlightTxn& r = undelivered_[i];
    if (!proposal_quorum_met(r.txn.zxid)) break;
    // Trace ACK at the ack that completes the quorum: that is the
    // protocol-relevant event, and it keeps PROPOSE <= ACK <= COMMIT
    // monotone per zxid on the leader's timeline. Each record passes here
    // once, as everything found met commits below.
    if (acker != kNoNode) {
      assert(r.span.propose_ns >= 0);  // every proposal is stamped
      r.span.quorum_ns = now;
      trace_.record(r.txn.zxid, trace::Stage::kAck, acker, now);
      h_propose_quorum_->record(
          static_cast<std::uint64_t>(now - r.span.propose_ns));
    }
    last = r.txn.zxid;
    ++drained;
  }
  if (drained == 0) return;
  raise_watermark(last);
  c_commits_->add(drained);
  g_outstanding_->set(static_cast<std::int64_t>(outstanding_proposals()));
  if (drained > 1) c_commit_coalesced_->add(drained - 1);

  // PROPOSE before COMMIT on every link: a quorum of the leader's own ACK
  // (one voter) commits txns still parked in this turn's batch, so put them
  // on the wire first — or an observer finds the COMMIT, and every later
  // PING's watermark, above its log and resyncs.
  if (!batch_.empty() && batch_.front().zxid <= last) flush_propose_batch();
  send_to_followers(CommitMsg{establishing_epoch_, last}, /*syncing=*/true);
  // Deliver AFTER the fan-out: deliver handlers can re-enter broadcast(),
  // and their new proposals must hit the wire after this COMMIT.
  try_deliver();
}

void ZabNode::on_pong(NodeId from, const PongMsg& m) {
  if (role_ != Role::kLeading || m.epoch != establishing_epoch_) return;
  auto it = followers_.find(from);
  if (it == followers_.end()) return;
  const TimePoint now = env_->now();
  it->second.last_contact = now;
  if (m.last_durable > it->second.last_zxid) {
    it->second.last_zxid = m.last_durable;
  }
  if (m.ping_t_sent > 0) {
    // The PONG closes a PING round trip: estimate this follower's clock
    // offset so TraceCollector can place its events on the leader timeline.
    const auto sample =
        clock_sync::estimate_clock_offset(m.ping_t_sent, m.t_reply, now);
    if (it->second.clock.update(sample)) {
      const std::string base = "zab.follower." + std::to_string(from);
      metrics_->gauge(base + ".clock_offset_ns")
          .set(it->second.clock.offset_ns());
      metrics_->gauge(base + ".rtt_ns").set(it->second.clock.rtt_ns());
    }
  }
  if (activated_) leader_record_acks(from, it->second, m.last_durable);
}

void ZabNode::on_request(NodeId from, RequestMsg m) {
  (void)from;
  if (!is_active_leader()) return;  // client retries via its own timeout
  if (request_handler_) {
    request_handler_(std::move(m.payload));
    return;
  }
  auto res = broadcast(std::move(m.payload));
  if (!res.is_ok()) {
    ZAB_TRACE() << "node " << cfg_.id
                << ": dropping forwarded request: " << res.status().to_string();
  }
}

void ZabNode::send_to_followers(const Message& m, bool syncing) {
  const Bytes wire = encode_message(m);
  for (const auto& [nid, fs] : followers_) {
    if (fs.stage == FollowerState::Stage::kActive ||
        (syncing && fs.stage == FollowerState::Stage::kSyncing)) {
      c_msgs_sent_->add();
      env_->send(nid, wire);
    }
  }
}

void ZabNode::leader_heartbeat() {
  send_to_followers(
      PingMsg{establishing_epoch_, commit_watermark_, env_->now()},
      /*syncing=*/false);
}

void ZabNode::leader_check_quorum_liveness() {
  const TimePoint now = env_->now();
  std::size_t live = active_config_.is_voter(cfg_.id) ? 1 : 0;  // self
  for (const auto& [nid, fs] : followers_) {
    if (active_config_.is_voter(nid) &&
        fs.stage == FollowerState::Stage::kActive &&
        now - fs.last_contact <= cfg_.follower_timeout) {
      ++live;
    }
  }
  update_health_gauges(now);
  if (live >= quorum()) {
    quorum_ok_since_ = now;
    return;
  }
  if (now - quorum_ok_since_ > cfg_.leader_quorum_timeout) {
    ZAB_DEBUG() << "node " << cfg_.id
                << ": lost contact with a quorum; stepping down";
    go_to_election();
  }
}

void ZabNode::update_health_gauges(TimePoint now) {
  if (role_ != Role::kLeading || !activated_) return;
  std::size_t synced = 0;
  for (const auto& [nid, fs] : followers_) {
    if (fs.stage != FollowerState::Stage::kActive) continue;
    const std::string base = "zab.follower." + std::to_string(nid);
    metrics_->gauge(base + ".lag_zxids")
        .set(static_cast<std::int64_t>(
            lag_zxids(fs.last_zxid, commit_watermark_)));
    metrics_->gauge(base + ".lag_ns")
        .set(static_cast<std::int64_t>(now - fs.last_contact));
    // Proposals the follower has not yet durably acked. The pipeline is
    // zxid-ordered, so this is the suffix beyond its cumulative ACK point.
    const std::size_t outstanding =
        undelivered_.size() -
        first_record_after(std::max(fs.last_zxid, commit_watermark_));
    metrics_->gauge(base + ".outstanding")
        .set(static_cast<std::int64_t>(outstanding));
    if (active_config_.is_voter(nid) &&
        now - fs.last_contact <= cfg_.follower_timeout &&
        lag_zxids(fs.last_zxid, commit_watermark_) == 0) {
      ++synced;
    }
  }
  g_synced_followers_->set(static_cast<std::int64_t>(synced));
  // Healthy = a quorum (counting ourselves) is live, synced or not: the
  // cluster can still commit. synced_followers dropping while healthy stays
  // 1 is the "degraded but serving" signal operators alert on.
  std::size_t live = active_config_.is_voter(cfg_.id) ? 1 : 0;
  for (const auto& [nid, fs] : followers_) {
    if (active_config_.is_voter(nid) &&
        fs.stage == FollowerState::Stage::kActive &&
        now - fs.last_contact <= cfg_.follower_timeout) {
      ++live;
    }
  }
  g_quorum_healthy_->set(live >= quorum() ? 1 : 0);
}

bool ZabNode::leader_epoch_valid(Epoch e) const {
  return e == establishing_epoch_ && establishing_epoch_ != kNoEpoch;
}

}  // namespace zab
