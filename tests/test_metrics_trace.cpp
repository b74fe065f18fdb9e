// Observability integration: stage traces and registry histograms recorded
// by a live ensemble on the simulator.
//
// The core invariant: for every transaction the leader delivered, its
// surviving trace events are causally ordered —
//   PROPOSE <= LOG_FSYNC <= ACK <= COMMIT <= DELIVER
// — and the per-stage histograms (zab.stage.*) carry one sample per txn.
#include <gtest/gtest.h>

#include "harness/sim_cluster.h"

namespace zab::harness {
namespace {

ClusterConfig base_config(std::size_t n, std::uint64_t seed = 7) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

TEST(MetricsTrace, LeaderStagesAreOrderedPerDeliveredZxid) {
  SimCluster c(base_config(3));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  constexpr std::uint32_t kOps = 50;
  ASSERT_TRUE(c.replicate_ops(kOps).is_ok());

  ZabNode& leader = c.node(l);
  const Zxid last = leader.last_delivered();
  ASSERT_EQ(last.counter, kOps);

  std::size_t checked = 0;
  for (std::uint32_t i = 1; i <= kOps; ++i) {
    const Zxid z{last.epoch, i};
    const auto st = leader.trace().stage_times(z);
    const std::int64_t propose = st.at(trace::Stage::kPropose);
    const std::int64_t fsync = st.at(trace::Stage::kLogFsync);
    const std::int64_t ack = st.at(trace::Stage::kAck);
    const std::int64_t commit = st.at(trace::Stage::kCommit);
    const std::int64_t deliver = st.at(trace::Stage::kDeliver);
    ASSERT_GE(propose, 0) << "zxid " << to_string(z);
    ASSERT_GE(fsync, 0) << "zxid " << to_string(z);
    ASSERT_GE(ack, 0) << "zxid " << to_string(z);
    ASSERT_GE(commit, 0) << "zxid " << to_string(z);
    ASSERT_GE(deliver, 0) << "zxid " << to_string(z);
    EXPECT_LE(propose, fsync) << "zxid " << to_string(z);
    EXPECT_LE(propose, ack) << "zxid " << to_string(z);
    EXPECT_LE(ack, commit) << "zxid " << to_string(z);
    EXPECT_LE(commit, deliver) << "zxid " << to_string(z);
    ++checked;
  }
  EXPECT_EQ(checked, kOps);
}

TEST(MetricsTrace, StageHistogramsCountDeliveredTxns) {
  SimCluster c(base_config(3));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  constexpr std::uint64_t kOps = 40;
  ASSERT_TRUE(c.replicate_ops(kOps).is_ok());

  MetricsRegistry& reg = c.node(l).metrics();
  EXPECT_EQ(reg.counter("zab.leader.proposals").value(), kOps);
  EXPECT_EQ(reg.counter("zab.leader.commits").value(), kOps);
  EXPECT_EQ(reg.counter("zab.node.delivered").value(), kOps);
  EXPECT_EQ(reg.gauge("zab.leader.outstanding").value(), 0);

  const Histogram& quorum = reg.histogram("zab.stage.propose_to_quorum_ack");
  const Histogram& commit = reg.histogram("zab.stage.propose_to_commit");
  const Histogram& deliver = reg.histogram("zab.stage.commit_to_deliver");
  const Histogram& e2e = reg.histogram("zab.stage.propose_to_deliver");
  EXPECT_EQ(quorum.count(), kOps);
  EXPECT_EQ(commit.count(), kOps);
  EXPECT_EQ(deliver.count(), kOps);
  EXPECT_EQ(e2e.count(), kOps);
  // Sub-stages never exceed the end-to-end pipeline.
  EXPECT_LE(quorum.max(), e2e.max());
  EXPECT_LE(commit.max(), e2e.max());
  EXPECT_LE(deliver.max(), e2e.max());
}

TEST(MetricsTrace, FollowerRecordsCommitAndDeliver) {
  SimCluster c(base_config(3));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(30).is_ok());
  // Then bursts of 8 writes per leader turn: each burst travels as one
  // PROPOSEBATCH and commits under one COMMIT naming its last zxid, so most
  // txns are committed by a watermark that no message names.
  constexpr int kBursts = 10;
  constexpr int kBurst = 8;
  Zxid last;
  for (int b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kBurst; ++i) {
      const auto r = c.submit(
          to_bytes("burst-" + std::to_string(b) + "-" + std::to_string(i)));
      ASSERT_TRUE(r.is_ok());
      last = r.value();
    }
    c.run_for(0);  // the leader's turn ends: the burst is on the wire
  }
  ASSERT_TRUE(c.wait_delivered(last));
  c.run_for(seconds(2));  // let heartbeats push the final watermark

  const NodeId f = (l == 1) ? 2 : 1;
  MetricsRegistry& reg = c.node(f).metrics();
  EXPECT_GE(reg.counter("zab.node.delivered").value(), 29u);
  EXPECT_GT(reg.histogram("zab.stage.propose_to_deliver").count(), 0u);
  // The follower's trace shows the same per-zxid ordering for live txns.
  const Zxid z{c.node(l).last_delivered().epoch, 5};
  const auto st = c.node(f).trace().stage_times(z);
  ASSERT_GE(st.at(trace::Stage::kPropose), 0);
  ASSERT_GE(st.at(trace::Stage::kDeliver), 0);
  EXPECT_LE(st.at(trace::Stage::kPropose), st.at(trace::Stage::kDeliver));

  // Every follower records COMMIT once per live txn it delivered (one it
  // received as a live proposal), whichever message carried the watermark.
  for (NodeId n = 1; n <= 3; ++n) {
    if (n == l) continue;
    std::uint64_t live = 0;
    std::uint64_t commits = 0;
    for (std::uint32_t i = 1; i <= last.counter; ++i) {
      const auto t = c.node(n).trace().stage_times(Zxid{last.epoch, i});
      const std::int64_t propose = t.at(trace::Stage::kPropose);
      const std::int64_t commit = t.at(trace::Stage::kCommit);
      const std::int64_t deliver = t.at(trace::Stage::kDeliver);
      if (propose < 0 || deliver < 0) continue;
      ++live;
      if (commit < 0) continue;
      ++commits;
      EXPECT_LE(propose, commit) << "node " << n << " counter " << i;
      EXPECT_LE(commit, deliver) << "node " << n << " counter " << i;
    }
    MetricsRegistry& r = c.node(n).metrics();
    EXPECT_GE(live, std::uint64_t{kBursts * kBurst}) << "node " << n;
    EXPECT_EQ(commits, live) << "node " << n;
    EXPECT_EQ(r.histogram("zab.stage.propose_to_commit").count(), live)
        << "node " << n;
    EXPECT_EQ(r.histogram("zab.stage.commit_to_deliver").count(), live)
        << "node " << n;
  }
}

TEST(MetricsTrace, ElectionEventsTraced) {
  SimCluster c(base_config(3));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  MetricsRegistry& reg = c.node(l).metrics();
  EXPECT_GE(reg.counter("zab.election.rounds").value(), 1u);
  EXPECT_GE(reg.histogram("zab.election.duration_ns").count(), 1u);

  const auto st = c.node(l).trace().stage_times(Zxid::zero());
  ASSERT_GE(st.at(trace::Stage::kElectionStart), 0);
  ASSERT_GE(st.at(trace::Stage::kElected), 0);
  ASSERT_GE(st.at(trace::Stage::kLeaderActive), 0);
  EXPECT_LE(st.at(trace::Stage::kElectionStart),
            st.at(trace::Stage::kElected));
  EXPECT_LE(st.at(trace::Stage::kElected),
            st.at(trace::Stage::kLeaderActive));
}

TEST(TraceRing, SnapshotIsOldestFirstBeforeAndAfterWrap) {
  // Regression: snapshot()/events() must start at the oldest SURVIVING
  // entry, not at slot 0 — the cross-node merge sorts by timestamp and a
  // rotated read order would silently reorder equal-timestamp events.
  trace::TraceRing ring(4);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    ring.record(Zxid{1, i}, trace::Stage::kPropose, 1,
                static_cast<TimePoint>(i * 100));
  }
  auto evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(evs[i].zxid.counter, i + 1);
  }

  // 6 events through a capacity-4 ring: events 3..6 survive, oldest-first.
  for (std::uint32_t i = 4; i <= 6; ++i) {
    ring.record(Zxid{1, i}, trace::Stage::kPropose, 1,
                static_cast<TimePoint>(i * 100));
  }
  evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].zxid.counter, i + 3) << "index " << i;
    EXPECT_EQ(evs[i].t, static_cast<TimePoint>((i + 3) * 100));
  }
}

TEST(MetricsTrace, RegistryJsonExposition) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.level").set(-2);
  reg.histogram("c.lat_ns").record(1000);
  const std::string j = reg.to_json();
  EXPECT_NE(j.find("\"counters\":{\"a.count\":3}"), std::string::npos) << j;
  EXPECT_NE(j.find("\"b.level\":-2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"c.lat_ns\":{\"count\":1"), std::string::npos) << j;
}

TEST(MetricsTrace, LeaderRegistryHasCommitsAndStageHistograms) {
  SimCluster c(base_config(3));
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(20).is_ok());

  EXPECT_EQ(c.node(l).role(), Role::kLeading);
  const MetricsSnapshot snap = c.node(l).metrics().snapshot();
  ASSERT_EQ(snap.counters.count("zab.leader.commits"), 1u);
  EXPECT_EQ(snap.counters.at("zab.leader.commits"), 20u);
  ASSERT_EQ(snap.histograms.count("zab.stage.propose_to_commit"), 1u);
  EXPECT_EQ(snap.histograms.at("zab.stage.propose_to_commit").count(), 20u);
  // The commit->deliver stage has samples, so its p99 is real.
  ASSERT_EQ(snap.histograms.count("zab.stage.commit_to_deliver"), 1u);
  EXPECT_GT(snap.histograms.at("zab.stage.commit_to_deliver").count(), 0u);
}

}  // namespace
}  // namespace zab::harness
