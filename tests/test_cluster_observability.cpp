// Cluster-wide health observability: clock-offset estimation, cross-node
// trace merge, leader lag/quorum gauges, and the stall watchdog.
//
// Layers covered:
//   - common/clock_sync.h unit math (offset/RTT estimation + filtering)
//   - harness/trace_collector.h merge of skewed synthetic rings
//   - ZabNode leader behaviour over ScriptedEnv (deterministic time):
//     PING/PONG offset estimation, health gauges, commit-stall watchdog
//   - RuntimeCluster integration: lag/quorum gauges react to a muted
//     follower and recover after resync; dump_trace emits merged JSONL;
//     the admin-plane merge (collect_traces_http) matches collect_traces
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/runtime_cluster.h"
#include "harness/trace_collector.h"
#include "pb/replicated_tree.h"
#include "scripted_env.h"
#include "storage/mem_storage.h"
#include "zab/zab_node.h"

namespace zab {
namespace {

using namespace std::chrono_literals;
using testing::ScriptedEnv;
using testing::inject;

// --- clock_sync unit ---------------------------------------------------------

TEST(ClockSync, OffsetAndRttFromSymmetricExchange) {
  // Remote clock 5000 ns ahead, one-way delay 500 ns each direction:
  // send at 1000 (local), remote replies at 1500+5000, arrives 2000 (local).
  const auto s = clock_sync::estimate_clock_offset(1000, 6500, 2000);
  EXPECT_EQ(s.rtt_ns, 1000);
  EXPECT_EQ(s.offset_ns, 5000);

  // Identical clocks: offset estimates to zero.
  const auto z = clock_sync::estimate_clock_offset(0, 500, 1000);
  EXPECT_EQ(z.rtt_ns, 1000);
  EXPECT_EQ(z.offset_ns, 0);
}

TEST(ClockSync, EstimatorPrefersLowRttSamples) {
  clock_sync::OffsetEstimator est;
  EXPECT_FALSE(est.valid());

  // First sample is always adopted.
  EXPECT_TRUE(est.update({1000, 100}));
  EXPECT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), 1000);
  EXPECT_EQ(est.rtt_ns(), 100);

  // A queueing spike (RTT way above best) must not displace the estimate.
  EXPECT_FALSE(est.update({9999, 1000}));
  EXPECT_EQ(est.offset_ns(), 1000);

  // Comparable RTT (within 25% of best) refreshes the estimate.
  EXPECT_TRUE(est.update({1200, 110}));
  EXPECT_EQ(est.offset_ns(), 1200);

  // A lower RTT is adopted and tightens the acceptance band.
  EXPECT_TRUE(est.update({1100, 40}));
  EXPECT_EQ(est.rtt_ns(), 40);
  EXPECT_FALSE(est.update({0, 80}));  // 80 > 40 * 1.25

  // Negative RTT (clock went backwards) is discarded outright.
  EXPECT_FALSE(est.update({0, -5}));
  EXPECT_EQ(est.offset_ns(), 1100);
}

// --- TraceCollector on synthetic rings ---------------------------------------

trace::TraceSnapshot synthetic_ring(
    NodeId recorder,
    std::vector<std::tuple<Zxid, trace::Stage, NodeId, TimePoint>> evs) {
  trace::TraceSnapshot s;
  s.recorder = recorder;
  for (auto& [z, st, n, t] : evs) s.events.push_back({z, st, n, t});
  return s;
}

TEST(TraceCollector, MergesSkewedRingsOntoLeaderTimeline) {
  const Zxid z{1, 1};
  // Leader (node 1) on its own clock.
  auto leader = synthetic_ring(1, {
      {z, trace::Stage::kPropose, 1, 1000},
      {z, trace::Stage::kAck, 2, 3000},  // follower 2 completed the quorum
      {z, trace::Stage::kCommit, 1, 3500},
      {z, trace::Stage::kDeliver, 1, 4000},
  });
  // Follower (node 2) with its clock 10000 ns AHEAD of the leader's.
  constexpr std::int64_t kSkew = 10000;
  auto follower = synthetic_ring(2, {
      {z, trace::Stage::kPropose, 2, 1200 + kSkew},
      {z, trace::Stage::kLogFsync, 2, 2000 + kSkew},
      {z, trace::Stage::kCommit, 2, 3600 + kSkew},
      {z, trace::Stage::kDeliver, 2, 3900 + kSkew},
  });

  harness::TraceCollector tc;
  tc.add(leader, 0);
  tc.add(follower, -kSkew);  // correction = -(follower - leader)
  EXPECT_EQ(tc.events_added(), 8u);

  const auto timelines = tc.merge();
  ASSERT_EQ(timelines.size(), 1u);
  const auto& tl = timelines[0];
  EXPECT_EQ(tl.zxid, z);
  ASSERT_EQ(tl.events.size(), 8u);
  // Offset correction puts follower events in true causal positions.
  for (std::size_t i = 1; i < tl.events.size(); ++i) {
    EXPECT_LE(tl.events[i - 1].t, tl.events[i].t) << "index " << i;
  }
  EXPECT_EQ(tl.events.front().stage, trace::Stage::kPropose);
  EXPECT_EQ(tl.events.front().recorder, 1u);

  // Hops come out non-negative with the exact corrected latencies.
  auto hop_ns = [&tl](const std::string& name,
                      NodeId to) -> std::optional<std::int64_t> {
    for (const auto& h : tl.hops) {
      if (h.name == name && h.to == to) return h.ns;
    }
    return std::nullopt;
  };
  EXPECT_EQ(hop_ns("propose_net", 2), 200);   // 1000 -> 1200
  EXPECT_EQ(hop_ns("log_fsync", 2), 800);     // 1200 -> 2000
  EXPECT_EQ(hop_ns("ack_net", 1), 1000);      // fsync 2000 -> leader ack 3000
  EXPECT_EQ(hop_ns("commit_net", 2), 100);    // 3500 -> 3600
  EXPECT_EQ(hop_ns("deliver", 1), 500);       // leader 3500 -> 4000
  EXPECT_EQ(hop_ns("deliver", 2), 300);       // follower 3600 -> 3900
  EXPECT_EQ(hop_ns("e2e_commit", 1), 2500);   // 1000 -> 3500
  for (const auto& h : tl.hops) EXPECT_GE(h.ns, 0) << h.name;

  // The same numbers feed the zab.hop.* histograms.
  const auto snap = tc.hop_metrics().snapshot();
  ASSERT_EQ(snap.histograms.count("zab.hop.propose_net_ns"), 1u);
  EXPECT_EQ(snap.histograms.at("zab.hop.propose_net_ns").count(), 1u);
  EXPECT_EQ(snap.histograms.at("zab.hop.deliver_ns").count(), 2u);
}

TEST(TraceCollector, ClampsResidualNegativeHopsToZero) {
  // Offset error (path asymmetry) can make a follower event appear to
  // precede its cause; the hop is clamped to zero, never negative.
  const Zxid z{1, 1};
  auto leader = synthetic_ring(1, {{z, trace::Stage::kPropose, 1, 1000},
                                   {z, trace::Stage::kAck, 2, 2000},
                                   {z, trace::Stage::kCommit, 1, 2100}});
  auto follower = synthetic_ring(2, {{z, trace::Stage::kPropose, 2, 950}});
  harness::TraceCollector tc;
  tc.add(leader, 0);
  tc.add(follower, 0);
  const auto timelines = tc.merge();
  ASSERT_EQ(timelines.size(), 1u);
  bool found = false;
  for (const auto& h : timelines[0].hops) {
    if (h.name == "propose_net") {
      EXPECT_EQ(h.ns, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceCollector, JsonlDumpHasOneObjectPerZxid) {
  auto leader = synthetic_ring(1, {{Zxid{1, 1}, trace::Stage::kPropose, 1, 10},
                                   {Zxid{1, 2}, trace::Stage::kPropose, 1, 20}});
  harness::TraceCollector tc;
  tc.add(leader, 0);
  const std::string path =
      ::testing::TempDir() + "/zab_trace_dump_test.jsonl";
  ASSERT_TRUE(tc.dump_jsonl(path).is_ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"zxid\":"), std::string::npos);
    EXPECT_NE(line.find("\"events\":"), std::string::npos);
    EXPECT_NE(line.find("\"hops\":"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// --- ZabNode over ScriptedEnv ------------------------------------------------

ZabConfig three_node_cfg(NodeId id) {
  ZabConfig cfg;
  cfg.id = id;
  cfg.peers = {1, 2, 3};
  return cfg;
}

VoteMsg vote_for(NodeId candidate) {
  return VoteMsg{candidate, Zxid::zero(), 0, 1, Role::kLooking, Zxid{}};
}

struct LeaderFixture {
  ScriptedEnv env;
  storage::MemStorage storage;
  ZabNode node;

  LeaderFixture() : env(3), node(three_node_cfg(3), env, storage) {}

  /// Drive node 3 to active leadership of epoch 1; follower 1 is Active
  /// (acked NEWLEADER), follower 2 stays in Syncing.
  void make_leader_of_epoch1() {
    node.start();
    (void)env.drain();
    inject(node, 1, vote_for(3));
    inject(node, 2, vote_for(3));
    ASSERT_EQ(node.role(), Role::kLeading);
    (void)env.drain();
    inject(node, 1, CEpochMsg{0, 0, Zxid::zero()});
    inject(node, 2, CEpochMsg{0, 0, Zxid::zero()});
    (void)env.drain();
    inject(node, 1, AckEpochMsg{0, Zxid::zero()});
    inject(node, 2, AckEpochMsg{0, Zxid::zero()});
    (void)env.drain();
    inject(node, 1, AckNewLeaderMsg{1});
    ASSERT_TRUE(node.is_active_leader());
    (void)env.drain();
  }
};

TEST(ClusterObservability, LeaderEstimatesFollowerOffsetFromPong) {
  LeaderFixture f;
  f.make_leader_of_epoch1();

  // Fire one heartbeat; the PING must carry the leader's send time.
  f.env.advance(millis(45));
  auto pings = f.env.drain_of<PingMsg>();
  ASSERT_FALSE(pings.empty());
  const PingMsg ping = pings[0].second;
  EXPECT_GT(ping.t_sent, 0);

  // Follower's clock runs 7777 ns ahead: reply stamped at the true midpoint
  // plus the skew, so the estimate recovers exactly 7777.
  const TimePoint now = f.env.now();
  const TimePoint t_reply = ping.t_sent + (now - ping.t_sent) / 2 + 7777;
  inject(f.node, 1, PongMsg{1, Zxid::zero(), ping.t_sent, t_reply});

  const auto offsets = f.node.follower_clock_offsets();
  ASSERT_EQ(offsets.count(1), 1u);
  EXPECT_EQ(offsets.at(1), 7777);
  EXPECT_EQ(f.node.metrics().gauge("zab.follower.1.clock_offset_ns").value(),
            7777);
  EXPECT_EQ(f.node.metrics().gauge("zab.follower.1.rtt_ns").value(),
            now - ping.t_sent);

  // A pong without a ping echo (t_sent == 0) must not feed the estimator.
  LeaderFixture g;
  g.make_leader_of_epoch1();
  inject(g.node, 1, PongMsg{1, Zxid::zero()});
  EXPECT_TRUE(g.node.follower_clock_offsets().empty());
}

TEST(ClusterObservability, HealthGaugesTrackActiveFollowers) {
  LeaderFixture f;
  f.make_leader_of_epoch1();
  // First heartbeat tick refreshes the gauges: follower 1 is Active, in
  // contact and caught up; follower 2 never finished sync.
  f.env.advance(millis(45));
  MetricsRegistry& reg = f.node.metrics();
  EXPECT_EQ(reg.gauge("zab.quorum.synced_followers").value(), 1);
  EXPECT_EQ(reg.gauge("zab.quorum.healthy").value(), 1);
  EXPECT_EQ(reg.gauge("zab.follower.1.lag_zxids").value(), 0);
  EXPECT_EQ(reg.gauge("zab.follower.1.outstanding").value(), 0);
}

TEST(ClusterObservability, WatchdogCountsCommitStallOncePerZxid) {
  LeaderFixture f;
  f.make_leader_of_epoch1();
  MetricsRegistry& reg = f.node.metrics();

  // Propose a txn that can never commit: follower 1 keeps heartbeating but
  // withholds its ACK, and follower 2 is not Active, so quorum (2) is never
  // reached beyond the leader's own durable append.
  const auto res = f.node.broadcast(to_bytes("stuck-op"));
  ASSERT_TRUE(res.is_ok());
  const Zxid z = res.value();
  (void)f.env.drain();

  for (int i = 0; i < 12; ++i) {
    f.env.advance(millis(100));
    // Keep the quorum alive so the leader does not abdicate mid-test.
    inject(f.node, 1, PongMsg{1, Zxid::zero()});
    (void)f.env.drain();
  }
  // 1.2 s with no COMMIT: flagged exactly once, gauge shows one stalled txn.
  EXPECT_EQ(reg.counter("zab.stall.commit").value(), 1u);
  EXPECT_EQ(reg.gauge("zab.stall.commit_stalled").value(), 1);

  // Still stalled later: the counter must NOT grow per tick.
  for (int i = 0; i < 5; ++i) {
    f.env.advance(millis(100));
    inject(f.node, 1, PongMsg{1, Zxid::zero()});
    (void)f.env.drain();
  }
  EXPECT_EQ(reg.counter("zab.stall.commit").value(), 1u);

  // The late ACK commits the txn; the stall gauge drains on the next tick.
  inject(f.node, 1, AckMsg{1, z});
  EXPECT_EQ(f.node.last_committed(), z);
  f.env.advance(millis(100));
  EXPECT_EQ(reg.gauge("zab.stall.commit_stalled").value(), 0);
  EXPECT_EQ(reg.counter("zab.stall.commit").value(), 1u);
}

// --- RuntimeCluster integration ----------------------------------------------

template <typename Pred>
bool eventually(Pred p, std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return p();
}

std::int64_t gauge_of(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? -1 : it->second;
}

TEST(ClusterObservability, QuorumGaugesReactToMutedFollowerAndRecover) {
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  auto write_ops = [&](int n, const std::string& prefix) {
    std::atomic<int> done{0};
    for (int i = 0; i < n; ++i) {
      c.with_tree(l, [&, i](pb::ReplicatedTree& tree) {
        tree.create(prefix + std::to_string(i), to_bytes("x"),
                    [&](const pb::OpResult& r) {
                      if (r.status.is_ok()) ++done;
                    });
      });
    }
    return eventually([&] { return done.load() == n; });
  };
  ASSERT_TRUE(write_ops(10, "/obs"));

  // Healthy steady state: both followers synced, quorum healthy, lag zero.
  ASSERT_TRUE(eventually([&] {
    const auto snap = c.metrics_snapshot(l);
    return gauge_of(snap, "zab.quorum.synced_followers") == 2 &&
           gauge_of(snap, "zab.quorum.healthy") == 1;
  }));
  const NodeId muted = (l == 1) ? 2 : 1;
  ASSERT_TRUE(eventually([&] {
    return gauge_of(c.metrics_snapshot(l),
                    "zab.follower." + std::to_string(muted) + ".lag_zxids") ==
           0;
  }));

  // Kill one follower (drop its inbound traffic): it stops ponging, so the
  // leader must drop synced_followers while remaining healthy (quorum of 2
  // still live), and new writes must still commit.
  c.mute_node(muted);
  ASSERT_TRUE(eventually([&] {
    return gauge_of(c.metrics_snapshot(l), "zab.quorum.synced_followers") ==
           1;
  }));
  EXPECT_EQ(gauge_of(c.metrics_snapshot(l), "zab.quorum.healthy"), 1);
  ASSERT_TRUE(write_ops(10, "/muted"));

  // Revive it: it resyncs, catches up, and the gauges recover — follower
  // lag returns to zero.
  c.unmute_node(muted);
  ASSERT_TRUE(eventually([&] {
    const auto snap = c.metrics_snapshot(l);
    return gauge_of(snap, "zab.quorum.synced_followers") == 2 &&
           gauge_of(snap, "zab.follower." + std::to_string(muted) +
                              ".lag_zxids") == 0;
  }));
  c.stop();
}

TEST(ClusterObservability, MntrJsonAndMergedTraceDump) {
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    c.with_tree(l, [&, i](pb::ReplicatedTree& tree) {
      tree.create("/trace" + std::to_string(i), to_bytes("x"),
                  [&](const pb::OpResult& r) {
                    if (r.status.is_ok()) ++done;
                  });
    });
  }
  ASSERT_TRUE(eventually([&] { return done.load() == 20; }));

  // Leader's mntr_json: node state + per-follower lag gauges (the
  // gauges appear on the first heartbeat tick, hence the poll).
  auto mntr_json = [&c, l] {
    std::string out;
    c.with_node(l, [&out](ZabNode& n) { out = n.mntr_json(); });
    return out;
  };
  ASSERT_TRUE(eventually([&] {
    return mntr_json().find(".lag_zxids\":") != std::string::npos;
  }));
  const std::string j = mntr_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_NE(j.find("\"role\":\"LEADING\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"zab.quorum.synced_followers\":"), std::string::npos) << j;

  // Cross-node merge: every delivered zxid has a timeline, and every hop
  // latency is non-negative after offset correction.
  harness::TraceCollector tc = c.collect_traces();
  EXPECT_GT(tc.events_added(), 0u);
  const auto timelines = tc.merge();
  std::size_t txn_timelines = 0;
  std::size_t hops = 0;
  for (const auto& tl : timelines) {
    if (tl.zxid == Zxid::zero()) continue;
    ++txn_timelines;
    for (const auto& h : tl.hops) {
      EXPECT_GE(h.ns, 0) << h.name << " zxid " << to_string(tl.zxid);
      ++hops;
    }
  }
  EXPECT_GE(txn_timelines, 20u);
  EXPECT_GT(hops, 0u);

  const std::string path = ::testing::TempDir() + "/zab_cluster_trace.jsonl";
  ASSERT_TRUE(c.dump_trace(path).is_ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_GE(lines, txn_timelines);
  std::remove(path.c_str());
  c.stop();
}

TEST(ClusterObservability, HttpTraceMergeMatchesInProcessMerge) {
  // collect_traces_http() reads what zab_cli dump_trace reads: each node's
  // /status and /tracez, and the leader's offset gauges from /metrics. On
  // a quiesced cluster it must rebuild collect_traces()'s merge: the same
  // zxids, events and hop names, with times that differ only through the
  // offset estimates (one constant shift per recorder).
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.with_admin = true;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    c.with_tree(l, [&, i](pb::ReplicatedTree& tree) {
      tree.create("/http" + std::to_string(i), to_bytes("x"),
                  [&](const pb::OpResult& r) {
                    if (r.status.is_ok()) ++done;
                  });
    });
  }
  ASSERT_TRUE(eventually([&] { return done.load() == 50; }));
  ASSERT_TRUE(eventually([&] {
    const Zxid last = c.view(l).last_delivered;
    const MetricsSnapshot m = c.metrics_snapshot(l);
    for (NodeId id = 1; id <= 3; ++id) {
      if (c.view(id).last_delivered != last) return false;
      const std::string gauge =
          "zab.follower." + std::to_string(id) + ".clock_offset_ns";
      if (id != l && m.gauges.count(gauge) == 0) return false;
    }
    return true;
  })) << "cluster never quiesced with offsets for both followers";

  std::vector<std::uint16_t> ports;
  for (NodeId id = 1; id <= 3; ++id) ports.push_back(c.admin_port(id));
  auto http = harness::collect_traces_http(ports);
  ASSERT_TRUE(http.is_ok()) << http.status().to_string();
  harness::TraceCollector local = c.collect_traces();
  EXPECT_EQ(http.value().rings_added(), 3u);
  EXPECT_EQ(http.value().events_added(), local.events_added());

  const auto a = http.value().merge();
  const auto b = local.merge();
  ASSERT_EQ(a.size(), b.size());
  using Ev = harness::TraceCollector::MergedEvent;
  auto order = [](const Ev& x, const Ev& y) {
    return std::tie(x.recorder, x.stage, x.subject, x.t) <
           std::tie(y.recorder, y.stage, y.subject, y.t);
  };
  auto hop_names = [](const harness::TraceCollector::ZxidTimeline& tl) {
    std::multiset<std::string> out;
    for (const auto& h : tl.hops) out.insert(h.name);
    return out;
  };
  std::map<NodeId, std::int64_t> shift;  // recorder -> HTTP t - local t
  std::size_t txns_with_hops = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].zxid, b[i].zxid);
    auto ea = a[i].events;
    auto eb = b[i].events;
    std::sort(ea.begin(), ea.end(), order);
    std::sort(eb.begin(), eb.end(), order);
    ASSERT_EQ(ea.size(), eb.size()) << to_string(a[i].zxid);
    for (std::size_t j = 0; j < ea.size(); ++j) {
      EXPECT_EQ(ea[j].recorder, eb[j].recorder);
      EXPECT_EQ(ea[j].stage, eb[j].stage);
      EXPECT_EQ(ea[j].subject, eb[j].subject);
      const std::int64_t d = ea[j].t - eb[j].t;
      EXPECT_EQ(shift.emplace(ea[j].recorder, d).first->second, d)
          << "recorder " << ea[j].recorder << " zxid " << to_string(a[i].zxid);
    }
    EXPECT_EQ(hop_names(a[i]), hop_names(b[i])) << to_string(a[i].zxid);
    if (a[i].zxid != Zxid::zero() && !a[i].hops.empty()) ++txns_with_hops;
  }
  EXPECT_EQ(shift[l], 0);
  EXPECT_GE(txns_with_hops, 50u);
  c.stop();
}

}  // namespace
}  // namespace zab
