// Tests for observer (non-voting) replicas: they receive the full committed
// stream and serve reads, but never vote, never count toward any quorum,
// and can never become leader.
#include <gtest/gtest.h>

#include "harness/sim_cluster.h"

namespace zab::harness {
namespace {

ClusterConfig obs_config(std::size_t voting, std::size_t observers,
                         std::uint64_t seed = 31) {
  ClusterConfig cfg;
  cfg.n = voting;
  cfg.n_observers = observers;
  cfg.seed = seed;
  return cfg;
}

TEST(Observers, ReceiveTheFullCommittedStream) {
  SimCluster c(obs_config(3, 2));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(100).is_ok());

  for (NodeId obs = 4; obs <= 5; ++obs) {
    EXPECT_EQ(c.node(obs).role(), Role::kFollowing) << "observer " << obs;
    EXPECT_EQ(c.node(obs).last_delivered(), c.node(l).last_delivered());
  }
  const auto v = c.checker().check();
  for (const auto& s : v) ADD_FAILURE() << s;
}

TEST(Observers, NeverBecomeLeader) {
  SimCluster c(obs_config(3, 2));
  ASSERT_NE(c.wait_for_leader(), kNoNode);
  // Crash every voting member repeatedly; observers must never lead.
  for (int round = 0; round < 3; ++round) {
    const NodeId l = c.leader_id();
    ASSERT_LE(l, 3u) << "observer became leader!";
    c.crash(l);
    c.run_for(seconds(1));
    const NodeId l2 = c.wait_for_leader(seconds(10));
    if (l2 != kNoNode) {
      EXPECT_LE(l2, 3u);
    }
    c.restart(l);
    c.run_for(millis(100));
  }
}

TEST(Observers, DoNotCountTowardCommitQuorum) {
  // 3 voting + 2 observers: crashing 2 voting members leaves 1 voting + 2
  // observers. If observers counted toward quorums, the ensemble would
  // keep committing — it must not.
  SimCluster c(obs_config(3, 2));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(10).is_ok());

  std::vector<NodeId> voting{1, 2, 3};
  int crashed = 0;
  for (NodeId n : voting) {
    if (crashed == 2) break;
    if (n != l || crashed < 1) {  // crash two (possibly incl. the leader)
      if (n == l) continue;       // keep the leader up; crash two followers
      c.crash(n);
      ++crashed;
    }
  }
  ASSERT_EQ(crashed, 2);
  c.run_for(seconds(2));
  // The remaining voting member (old leader) must have stepped down even
  // though both observers are still reachable.
  EXPECT_EQ(c.leader_id(), kNoNode);
  EXPECT_FALSE(c.node(l).is_active_leader());
}

TEST(Observers, DoNotCountTowardElectionQuorum) {
  SimCluster c(obs_config(3, 2));
  ASSERT_NE(c.wait_for_leader(), kNoNode);
  c.crash(1);
  c.crash(2);
  c.run_for(seconds(2));
  // 1 voting + 2 observers cannot elect.
  EXPECT_EQ(c.leader_id(), kNoNode);
  c.restart(1);
  EXPECT_NE(c.wait_for_leader(), kNoNode);
}

TEST(Observers, CrashedObserverDoesNotAffectProgress) {
  SimCluster c(obs_config(3, 2));
  ASSERT_NE(c.wait_for_leader(), kNoNode);
  c.crash(4);
  c.crash(5);
  ASSERT_TRUE(c.replicate_ops(50).is_ok());

  // Rejoining observers catch up.
  c.restart(4);
  c.restart(5);
  const NodeId l = c.leader_id();
  const Zxid target = c.node(l).last_committed();
  ASSERT_TRUE(c.wait_delivered(target));
  EXPECT_EQ(c.node(4).last_delivered(), target);
  EXPECT_EQ(c.node(5).last_delivered(), target);
  const auto v = c.checker().check();
  for (const auto& s : v) ADD_FAILURE() << s;
}

TEST(Observers, SurviveLeaderFailover) {
  SimCluster c(obs_config(3, 1, 77));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(30).is_ok());
  c.crash(l);
  const NodeId l2 = c.wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  ASSERT_TRUE(c.replicate_ops(30).is_ok());

  const Zxid target = c.node(l2).last_committed();
  ASSERT_TRUE(c.wait_delivered(target));
  EXPECT_EQ(c.node(4).last_delivered(), target);  // observer followed over
  EXPECT_GT(c.node(4).epoch(), 1u);
  const auto v = c.checker().check();
  for (const auto& s : v) ADD_FAILURE() << s;
}

TEST(Observers, ChaosWithObservers) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimCluster c(obs_config(3, 2, 500 + seed));
    Rng rng(seed);
    ASSERT_NE(c.wait_for_leader(), kNoNode);
    for (int step = 0; step < 40; ++step) {
      for (int i = 0; i < 3; ++i) {
        (void)c.submit(make_op(static_cast<std::uint64_t>(step * 10 + i), 16));
      }
      c.run_for(0);  // the leader's turn ends: the ops are on the wire
      const NodeId victim = static_cast<NodeId>(rng.range(1, 5));
      if (rng.chance(0.2) && c.is_up(victim)) {
        // Never take down 2 voting members at once.
        std::size_t voting_up = 0;
        for (NodeId n = 1; n <= 3; ++n) {
          if (c.is_up(n)) ++voting_up;
        }
        if (victim > 3 || voting_up == 3) c.crash(victim);
      } else if (!c.is_up(victim)) {
        c.restart(victim);
      }
      c.run_for(millis(static_cast<std::int64_t>(rng.range(10, 80))));
    }
    for (NodeId n = 1; n <= 5; ++n) {
      if (!c.is_up(n)) c.restart(n);
    }
    ASSERT_TRUE(c.replicate_ops(1, 16, seconds(60)).is_ok()) << "seed " << seed;
    for (const auto& s : c.checker().check()) {
      ADD_FAILURE() << "seed " << seed << ": " << s;
    }
  }
}

}  // namespace
}  // namespace zab::harness
