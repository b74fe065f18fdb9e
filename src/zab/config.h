// Zab node configuration and role/phase enums.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace zab {

/// Externally visible role of a peer.
enum class Role : std::uint8_t {
  kLooking = 0,    // electing (paper: election phase)
  kFollowing = 1,
  kLeading = 2,
};

[[nodiscard]] const char* role_name(Role r);

/// Internal protocol phase (paper §4: phases 0-3).
enum class Phase : std::uint8_t {
  kElection = 0,         // Phase 0: leader election
  kDiscovery = 1,        // Phase 1: discover the latest quorum history
  kSynchronization = 2,  // Phase 2: bring a quorum up to date
  kBroadcast = 3,        // Phase 3: two-phase broadcast
};

[[nodiscard]] const char* phase_name(Phase p);

/// The leader flushes its parked PROPOSEBATCH early once the txns in it
/// reach this many encoded bytes, so one busy loop turn cannot build an
/// unbounded frame.
inline constexpr std::size_t kMaxProposeBatchBytes = 128 * 1024;

// --- Election (Phase 0) ---
/// How long to wait after seeing a quorum for a candidate before concluding
/// the election (ZooKeeper's finalizeWait).
inline constexpr Duration kElectionFinalize = millis(20);
/// Rebroadcast the current vote while still looking (copes with loss and
/// with peers that were down when we first voted); a follower in discovery
/// re-sends CEPOCH at the same cadence.
inline constexpr Duration kElectionRebroadcast = millis(100);

// --- Discovery / Synchronization (Phases 1-2) ---
/// Back to election when leader establishment (leader) or discovery
/// (follower) does not complete within this long.
inline constexpr Duration kDiscoveryTimeout = millis(500);
/// Follower: back to election when synchronization does not complete
/// within this long.
inline constexpr Duration kSyncTimeout = millis(1000);

// --- Health watchdog (docs/PROTOCOL.md §9) ---
/// Cadence of the stall watchdog (runs for the node's whole life, across
/// role changes).
inline constexpr Duration kWatchdogInterval = millis(50);
/// A proposed zxid with no COMMIT after this long counts as a commit stall
/// (`zab.stall.commit`).
inline constexpr Duration kStallCommitTimeout = millis(1000);
/// Leader only: a voting follower whose acked zxid trails the commit
/// watermark by more than this many transactions counts as lag-stalled
/// (`zab.stall.follower_lag`).
inline constexpr std::uint64_t kStallLagZxids = 1000;

struct ZabConfig {
  NodeId id = kNoNode;
  /// Voting ensemble members. `id` is in either peers or observers.
  std::vector<NodeId> peers;
  /// Non-voting members (ZooKeeper-style observers): they receive the full
  /// broadcast stream and serve reads, but never vote in elections, never
  /// count toward proposal/NEWLEADER quorums, and can never become leader —
  /// so adding observers scales read capacity without growing quorums.
  std::vector<NodeId> observers;

  // --- Broadcast (Phase 3) ---
  // Wire batching has no knob: the leader sends the txns broadcast in one
  // loop turn as one PROPOSEBATCH frame, or sooner at kMaxProposeBatchBytes
  // (docs/PROTOCOL.md §14).
  Duration heartbeat_interval = millis(40);
  /// Follower: give up on the leader after this long without contact.
  Duration follower_timeout = millis(200);
  /// Leader: step down after this long without contact from a quorum.
  Duration leader_quorum_timeout = millis(200);
  /// Back-pressure: max proposals in flight (not yet committed).
  std::size_t max_outstanding = 2048;

  // --- Checkpointing ---
  /// Take a local application snapshot every N delivered txns (0 = never).
  std::size_t snapshot_every = 0;
  /// When purging the log after a snapshot, retain at least this many
  /// trailing entries so lagging followers can still DIFF-sync.
  std::size_t log_retain = 1000;

  [[nodiscard]] std::size_t quorum_size() const { return peers.size() / 2 + 1; }

  [[nodiscard]] bool is_voting(NodeId n) const {
    for (NodeId p : peers) {
      if (p == n) return true;
    }
    return false;
  }
  [[nodiscard]] bool is_observer(NodeId n) const {
    for (NodeId o : observers) {
      if (o == n) return true;
    }
    return false;
  }
  /// Every member, voting and observing.
  [[nodiscard]] std::vector<NodeId> all_members() const {
    std::vector<NodeId> all = peers;
    all.insert(all.end(), observers.begin(), observers.end());
    return all;
  }
};

}  // namespace zab
