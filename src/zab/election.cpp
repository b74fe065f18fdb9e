// Phase 0: Fast Leader Election (ZooKeeper's realization of the paper's
// leader oracle).
//
// Each LOOKING process votes for the peer with the most recent history,
// ordered by (currentEpoch, lastZxid, id). Votes converge because everyone
// adopts any strictly greater vote they see. Once a quorum supports one
// candidate, the process waits a short finalize window for a better vote
// (ZooKeeper's finalizeWait) and then decides. Electing the peer with the
// maximal (epoch, zxid) is what lets Zab skip transferring histories in
// discovery: the prospective leader's own history is already the latest in
// its quorum, and ACKEPOCH merely verifies this.
//
// Processes that are already FOLLOWING/LEADING answer lookers with their
// established vote, so a restarted node can join a running ensemble without
// forcing a new round.
#include <algorithm>

#include "common/logging.h"
#include "zab/zab_node.h"

namespace zab {

bool ZabNode::vote_gt(const Vote& a, const Vote& b) {
  if (a.epoch != b.epoch) return a.epoch > b.epoch;
  if (a.zxid != b.zxid) return a.zxid > b.zxid;
  return a.leader > b.leader;
}

ZabNode::Vote ZabNode::self_vote() const {
  // Non-voters (observers, learners awaiting promotion, members removed by
  // reconfig) never stand for election: their base vote is the null
  // candidate, which any voting member's vote supersedes.
  if (!active_config_.is_voter(cfg_.id)) {
    return Vote{kNoNode, Zxid::zero(), kNoEpoch};
  }
  return Vote{cfg_.id, last_logged_, storage_->current_epoch()};
}

VoteMsg ZabNode::current_vote_msg() const {
  if (phase_ == Phase::kElection) {
    return VoteMsg{my_vote_.leader,          my_vote_.zxid, my_vote_.epoch,
                   round_,                   Role::kLooking,
                   active_config_.config_zxid};
  }
  // Established belief: tell lookers who we follow (or that we lead).
  return VoteMsg{leader_,       last_logged_, storage_->current_epoch(),
                 round_,        role_,        active_config_.config_zxid};
}

void ZabNode::start_election() {
  ++round_;
  c_elections_->add();
  election_started_ = env_->now();
  trace_stage(Zxid::zero(), trace::Stage::kElectionStart, cfg_.id);
  become(Role::kLooking, Phase::kElection);
  my_vote_ = self_vote();
  election_votes_.clear();
  established_votes_.clear();
  if (active_config_.is_voter(cfg_.id)) election_votes_[cfg_.id] = my_vote_;

  ZAB_DEBUG() << "node " << cfg_.id << ": election round " << round_
              << " voting for " << my_vote_.leader;
  broadcast_vote();

  // Rebroadcast while still looking: copes with lost notifications and
  // with peers that start (or crash back) later.
  auto rebroadcast = [this](auto&& self_fn) -> void {
    if (phase_ != Phase::kElection) return;
    broadcast_vote();
    rebroadcast_timer_ = env_->set_timer(
        kElectionRebroadcast, [this, self_fn] { self_fn(self_fn); });
  };
  if (rebroadcast_timer_ != kNoTimer) env_->cancel_timer(rebroadcast_timer_);
  rebroadcast_timer_ = env_->set_timer(
      kElectionRebroadcast, [this, rebroadcast] { rebroadcast(rebroadcast); });

  check_election_quorum();  // single-node ensembles elect immediately
}

void ZabNode::broadcast_vote() { broadcast_to_peers(current_vote_msg()); }

void ZabNode::on_vote(NodeId from, const VoteMsg& m) {
  const Vote v{m.proposed_leader, m.proposed_zxid, m.proposed_epoch};

  if (phase_ != Phase::kElection) {
    // We already follow/lead: help the looker find the established leader.
    if (m.sender_role == Role::kLooking) send_to(from, current_vote_msg());
    return;
  }

  if (m.sender_role == Role::kLooking) {
    // Drop votes from senders outside our voter set — observers, learners,
    // and members removed by reconfig carry no vote — UNLESS the sender's
    // config is strictly newer than ours: then the sender may be a voter
    // added by a reconfig we have not yet learned, and ignoring it could
    // wedge the election.
    if (!active_config_.is_voter(from) &&
        m.config_zxid <= active_config_.config_zxid) {
      return;
    }
    if (m.round > round_) {
      // Join the newer round; restart our tally.
      round_ = m.round;
      election_votes_.clear();
      my_vote_ = vote_gt(v, self_vote()) ? v : self_vote();
      if (active_config_.is_voter(cfg_.id)) election_votes_[cfg_.id] = my_vote_;
      broadcast_vote();
    } else if (m.round < round_) {
      send_to(from, current_vote_msg());  // pull the sender forward
      return;
    } else if (vote_gt(v, my_vote_)) {
      my_vote_ = v;
      if (active_config_.is_voter(cfg_.id)) election_votes_[cfg_.id] = my_vote_;
      broadcast_vote();
    }
    election_votes_[from] = v;
    check_election_quorum();
    return;
  }

  // Sender is FOLLOWING or LEADING an established leader. Adopt that leader
  // once a quorum of VOTING members (including the leader itself) vouches.
  if (!active_config_.is_voter(from) &&
      m.config_zxid <= active_config_.config_zxid) {
    return;
  }
  established_votes_[from] = v;
  std::size_t support = 0;
  bool leader_vouches = false;
  for (const auto& [nid, ev] : established_votes_) {
    if (ev.leader != v.leader) continue;
    ++support;
    if (nid == v.leader) leader_vouches = true;
  }
  if (support >= quorum() && leader_vouches && v.leader != cfg_.id) {
    ZAB_DEBUG() << "node " << cfg_.id << ": joining established leader "
                << v.leader;
    round_ = std::max(round_, m.round);
    elected(v.leader);
  }
}

void ZabNode::check_election_quorum() {
  std::size_t count = 0;
  for (const auto& [nid, v] : election_votes_) {
    if (v.leader == my_vote_.leader && v.zxid == my_vote_.zxid &&
        v.epoch == my_vote_.epoch) {
      ++count;
    }
  }
  if (count < quorum()) return;

  if (count == active_config_.voters.size()) {
    // Unanimous: no better vote can arrive this round.
    finalize_election();
    return;
  }
  if (finalize_timer_ == kNoTimer) {
    finalize_timer_ = env_->set_timer(kElectionFinalize, [this] {
      finalize_timer_ = kNoTimer;
      finalize_election();
    });
  }
}

void ZabNode::finalize_election() {
  if (phase_ != Phase::kElection) return;
  // Re-verify: a better vote may have shifted the tally during the wait.
  std::size_t count = 0;
  for (const auto& [nid, v] : election_votes_) {
    if (v.leader == my_vote_.leader && v.zxid == my_vote_.zxid &&
        v.epoch == my_vote_.epoch) {
      ++count;
    }
  }
  if (count < quorum() || my_vote_.leader == kNoNode) return;
  elected(my_vote_.leader);
}

void ZabNode::elected(NodeId leader_id) {
  for (TimerId* t : {&finalize_timer_, &rebroadcast_timer_}) {
    if (*t != kNoTimer) {
      env_->cancel_timer(*t);
      *t = kNoTimer;
    }
  }
  ZAB_DEBUG() << "node " << cfg_.id << ": elected " << leader_id << " in round "
              << round_;
  trace_.record(Zxid::zero(), trace::Stage::kElected, leader_id, env_->now());
  if (election_started_ >= 0) {
    const std::int64_t dur = env_->now() - election_started_;
    h_election_->record(static_cast<std::uint64_t>(dur));
    g_election_last_ns_->set(dur);
    election_started_ = -1;
  }
  // Recovery (discovery + synchronization) is timed from here until this
  // node re-enters broadcast, as leader or follower.
  elected_time_ = env_->now();
  if (leader_id == cfg_.id) {
    leader_ = cfg_.id;
    role_ = Role::kLeading;
    phase_ = Phase::kDiscovery;
    leader_begin_discovery();
  } else {
    follower_begin_discovery(leader_id);
  }
}

}  // namespace zab
