// White-box tests for observer (non-voting) behaviour at the protocol level.
#include <gtest/gtest.h>

#include "scripted_env.h"
#include "storage/mem_storage.h"
#include "zab/zab_node.h"

namespace zab {
namespace {

using testing::ScriptedEnv;
using testing::inject;

/// 3 voting members (1..3) + observer 4.
ZabConfig obs_cfg(NodeId id) {
  ZabConfig cfg;
  cfg.id = id;
  cfg.peers = {1, 2, 3};
  cfg.observers = {4};
  return cfg;
}

VoteMsg vote_for(NodeId candidate, ElectionEpoch round = 1,
                 Role role = Role::kLooking) {
  return VoteMsg{candidate, Zxid::zero(), 0, round, role, Zxid{}};
}

TEST(ObserverUnit, ObserverNeverProposesItself) {
  ScriptedEnv env(4);
  storage::MemStorage st;
  ZabNode node(obs_cfg(4), env, st);
  node.start();
  auto votes = env.drain_of<VoteMsg>();
  ASSERT_FALSE(votes.empty());
  for (const auto& [to, v] : votes) {
    EXPECT_EQ(v.proposed_leader, kNoNode);  // null candidate probe
  }
}

TEST(ObserverUnit, VotingMemberIgnoresObserverVotes) {
  ScriptedEnv env(3);
  storage::MemStorage st;
  ZabNode node(obs_cfg(3), env, st);
  node.start();
  (void)env.drain();
  // Observer 4 "votes" for node 3 twice: must not count toward quorum.
  inject(node, 4, vote_for(3));
  inject(node, 4, vote_for(3));
  EXPECT_EQ(node.role(), Role::kLooking);
  // One real voting member's vote completes the quorum (self + 1 = 2 of 3).
  inject(node, 1, vote_for(3));
  env.advance(kElectionFinalize + millis(1));
  EXPECT_EQ(node.role(), Role::kLeading);
}

TEST(ObserverUnit, ObserverFollowsQuorumVouchedLeader) {
  ScriptedEnv env(4);
  storage::MemStorage st;
  ZabNode node(obs_cfg(4), env, st);
  node.start();
  (void)env.drain();
  // Two established voting members (incl. the leader itself) vouch for 3.
  inject(node, 3, vote_for(3, 1, Role::kLeading));
  inject(node, 1, vote_for(3, 1, Role::kFollowing));
  EXPECT_EQ(node.role(), Role::kFollowing);
  EXPECT_EQ(node.leader(), 3u);
  auto ce = env.drain_of<CEpochMsg>();
  ASSERT_EQ(ce.size(), 1u);
  EXPECT_EQ(ce[0].first, 3u);
}

TEST(ObserverUnit, ObserverAdoptsLeaderFromLookingVotes) {
  // During a cold start the observer tallies the voting members' LOOKING
  // votes and follows whoever they converge on.
  ScriptedEnv env(4);
  storage::MemStorage st;
  ZabNode node(obs_cfg(4), env, st);
  node.start();
  (void)env.drain();
  inject(node, 1, vote_for(3));
  inject(node, 2, vote_for(3));
  // Quorum of voting members (2 of 3) agree; finalize window then decides.
  env.advance(kElectionFinalize + millis(1));
  EXPECT_EQ(node.role(), Role::kFollowing);
  EXPECT_EQ(node.leader(), 3u);
}

TEST(ObserverUnit, LeaderDoesNotCountObserverForNewLeaderQuorum) {
  ScriptedEnv env(3);
  storage::MemStorage st;
  ZabNode node(obs_cfg(3), env, st);
  node.start();
  (void)env.drain();
  inject(node, 1, vote_for(3));
  inject(node, 2, vote_for(3));
  ASSERT_EQ(node.role(), Role::kLeading);
  (void)env.drain();
  // Observer 4 and voting member 1 run discovery.
  inject(node, 4, CEpochMsg{0, 0, Zxid::zero()});
  inject(node, 1, CEpochMsg{0, 0, Zxid::zero()});
  (void)env.drain();
  inject(node, 4, AckEpochMsg{0, Zxid::zero()});
  (void)env.drain();
  // Observer acks NEWLEADER: with only (self + observer) the epoch must
  // NOT activate — observers don't count.
  inject(node, 4, AckNewLeaderMsg{1});
  EXPECT_FALSE(node.is_active_leader());
  // A voting member's ack activates it.
  inject(node, 1, AckEpochMsg{0, Zxid::zero()});
  (void)env.drain();
  inject(node, 1, AckNewLeaderMsg{1});
  EXPECT_TRUE(node.is_active_leader());
  // ...and the observer receives UPTODATE at activation too.
  auto utd = env.drain_of<UpToDateMsg>();
  std::set<NodeId> dests;
  for (const auto& [to, m] : utd) dests.insert(to);
  EXPECT_TRUE(dests.count(4) != 0);
  EXPECT_TRUE(dests.count(1) != 0);
}

TEST(ObserverUnit, ObserverAcksDoNotCommitProposals) {
  ScriptedEnv env(3);
  storage::MemStorage st;
  ZabNode node(obs_cfg(3), env, st);
  std::vector<Txn> delivered;
  node.add_deliver_handler([&](const Txn& t) { delivered.push_back(t); });
  node.start();
  (void)env.drain();
  inject(node, 1, vote_for(3));
  inject(node, 2, vote_for(3));
  (void)env.drain();
  inject(node, 1, CEpochMsg{0, 0, Zxid::zero()});
  inject(node, 4, CEpochMsg{0, 0, Zxid::zero()});
  (void)env.drain();
  inject(node, 1, AckEpochMsg{0, Zxid::zero()});
  inject(node, 4, AckEpochMsg{0, Zxid::zero()});
  (void)env.drain();
  inject(node, 1, AckNewLeaderMsg{1});
  inject(node, 4, AckNewLeaderMsg{1});
  ASSERT_TRUE(node.is_active_leader());
  (void)env.drain();

  ASSERT_TRUE(node.broadcast(to_bytes("op")).is_ok());
  (void)env.drain();
  // Observer ack alone (plus self) must not commit (quorum is 2 VOTING).
  inject(node, 4, AckMsg{1, Zxid{1, 1}});
  EXPECT_TRUE(delivered.empty());
  inject(node, 1, AckMsg{1, Zxid{1, 1}});
  EXPECT_EQ(delivered.size(), 1u);
}

}  // namespace
}  // namespace zab
