// Behavioural tests for Phase 0 (Fast Leader Election) and for leadership
// stability, plus a crash-point sweep over the broadcast pipeline.
#include <gtest/gtest.h>

#include "harness/sim_cluster.h"

namespace zab::harness {
namespace {

ClusterConfig cluster(std::size_t n, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

TEST(Election, HighestIdWinsAmongEqualHistories) {
  // Fresh ensemble: all logs empty, all epochs 0 -> vote order falls back
  // to the node id, so the highest id must win the first election.
  SimCluster c(cluster(5, 3));
  const NodeId l = c.wait_for_leader();
  EXPECT_EQ(l, 5u);
}

TEST(Election, MostUpToDateNodeWins) {
  SimCluster c(cluster(3, 5));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  // Make one follower stale, then keep committing.
  const NodeId stale = (l == 1) ? 2 : 1;
  c.crash(stale);
  ASSERT_TRUE(c.replicate_ops(50).is_ok());

  // Restart the stale node, crash everyone else; once a quorum (stale +
  // one fresh node) is back, the fresh node must lead: electing the stale
  // node would require the fresh one to vote for a shorter history.
  NodeId fresh = kNoNode;
  for (NodeId n = 1; n <= 3; ++n) {
    if (n != stale && n != l) fresh = n;
  }
  c.crash(l);
  c.crash(fresh);
  c.restart(stale);
  c.run_for(millis(100));
  c.restart(fresh);

  const NodeId l2 = c.wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  EXPECT_EQ(l2, fresh);
  // No committed txn lost.
  EXPECT_GE(c.node(l2).last_delivered().counter, 50u);
}

TEST(Election, StableLeadershipWithoutFaults) {
  SimCluster c(cluster(5, 9));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  auto elections = [&] {
    return c.node(l).metrics().counter("zab.election.rounds").value();
  };
  const auto elections_before = elections();
  const auto epoch_before = c.node(l).epoch();

  ASSERT_TRUE(c.replicate_ops(200).is_ok());
  c.run_for(seconds(10));  // long quiet period

  EXPECT_EQ(elections(), elections_before);
  EXPECT_EQ(c.node(l).epoch(), epoch_before);
  EXPECT_TRUE(c.node(l).is_active_leader());
}

TEST(Election, LateJoinerAdoptsEstablishedLeaderWithoutNewEpoch) {
  SimCluster c(cluster(5, 13));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  const NodeId joiner = (l == 1) ? 2 : 1;
  c.crash(joiner);
  ASSERT_TRUE(c.replicate_ops(30).is_ok());
  const Epoch epoch_before = c.node(l).epoch();

  c.restart(joiner);
  const Zxid target = c.node(l).last_committed();
  ASSERT_TRUE(c.wait_delivered(target));

  EXPECT_EQ(c.node(l).epoch(), epoch_before) << "join must not force re-election";
  EXPECT_EQ(c.node(joiner).role(), Role::kFollowing);
  EXPECT_EQ(c.node(joiner).leader(), l);
}

TEST(Election, TwoSimultaneousCrashesInFiveNodeEnsemble) {
  SimCluster c(cluster(5, 17));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(40).is_ok());

  // Crash the leader and one follower at the same instant.
  const NodeId f = (l % 5) + 1;
  c.crash(l);
  c.crash(f);
  const NodeId l2 = c.wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  EXPECT_NE(l2, l);
  EXPECT_NE(l2, f);
  ASSERT_TRUE(c.replicate_ops(40).is_ok());
  const auto v = c.checker().check();
  for (const auto& s : v) ADD_FAILURE() << s;
}

TEST(Election, NoQuorumMeansNoLeader) {
  SimCluster c(cluster(3, 21));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  // Take down a majority.
  c.crash(1);
  c.crash(2);
  c.run_for(seconds(3));
  EXPECT_EQ(c.leader_id(), kNoNode);
  EXPECT_FALSE(c.node(3).is_active_leader());
  // Restore one node: quorum again, leadership resumes.
  c.restart(1);
  EXPECT_NE(c.wait_for_leader(), kNoNode);
}

TEST(Election, EpochStrictlyIncreasesAcrossLeaderChanges) {
  SimCluster c(cluster(3, 25));
  Epoch prev = 0;
  for (int round = 0; round < 3; ++round) {
    const NodeId l = c.wait_for_leader();
    ASSERT_NE(l, kNoNode);
    const Epoch e = c.node(l).epoch();
    EXPECT_GT(e, prev);
    prev = e;
    ASSERT_TRUE(c.replicate_ops(10).is_ok());
    c.crash(l);
    c.run_for(millis(50));
    c.restart(l);
  }
}

// --- Crash-point sweep: kill the leader after exactly K submitted (not
// necessarily committed) proposals; the survivors must converge with all
// invariants intact, whatever K is.
class CrashPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointSweep, LeaderCrashMidPipeline) {
  const int k = GetParam();
  SimCluster c(cluster(3, 100 + static_cast<std::uint64_t>(k)));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  // Stuff K proposals into the pipeline without letting commits drain.
  for (int i = 0; i < k; ++i) {
    (void)c.submit(make_op(static_cast<std::uint64_t>(i), 32));
  }
  c.run_for(0);  // the leader's turn ends: its proposals leave, then it dies
  c.crash(l);

  const NodeId l2 = c.wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  ASSERT_TRUE(c.replicate_ops(5).is_ok());

  c.restart(l);
  const Zxid target = c.node(l2).last_committed();
  ASSERT_TRUE(c.wait_delivered(target));

  const auto v = c.checker().check();
  for (const auto& s : v) ADD_FAILURE() << "k=" << k << ": " << s;
  const auto ag = c.checker().check_agreement(c.up_nodes());
  for (const auto& s : ag) ADD_FAILURE() << "k=" << k << ": " << s;
}

INSTANTIATE_TEST_SUITE_P(PipelineDepths, CrashPointSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 50, 200));

// --- Crash the leader at every protocol step of establishment. We emulate
// step granularity with fine-grained time offsets from a cold start.
class EstablishmentCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(EstablishmentCrashSweep, CrashDuringEstablishment) {
  const int step_ms = GetParam();
  SimCluster c(cluster(3, 200 + static_cast<std::uint64_t>(step_ms)));
  c.run_for(millis(step_ms));  // somewhere inside election/discovery/sync

  // Whoever is furthest along (leading or prospective), kill it.
  NodeId victim = kNoNode;
  for (NodeId n = 1; n <= 3; ++n) {
    if (c.node(n).role() == Role::kLeading) victim = n;
  }
  if (victim == kNoNode) victim = 3;  // likely FLE winner
  c.crash(victim);

  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode) << "step " << step_ms;
  ASSERT_TRUE(c.replicate_ops(20).is_ok()) << "step " << step_ms;
  c.restart(victim);
  const Zxid target = c.node(l).last_committed();
  ASSERT_TRUE(c.wait_delivered(target));
  const auto v = c.checker().check();
  for (const auto& s : v) ADD_FAILURE() << "step=" << step_ms << ": " << s;
}

INSTANTIATE_TEST_SUITE_P(Offsets, EstablishmentCrashSweep,
                         ::testing::Values(1, 5, 10, 20, 30, 40, 60, 80, 120,
                                           200));

}  // namespace
}  // namespace zab::harness
