// End-to-end request latency attribution: OpSpan stage derivation, the
// SlowLog ring, span lifecycle invariants on the simulator (including an
// injected slow fsync that must land in the slow log attributed to the fsync
// stage), and the admin GET /slowlog surface on a real threaded cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/op_span.h"
#include "common/slow_log.h"
#include "harness/runtime_cluster.h"
#include "harness/sim_cluster.h"
#include "pb/remote_client.h"

namespace zab {
namespace {

OpSpan full_span() {
  OpSpan s;
  s.session_id = 0x5e55;
  s.cxid = 7;
  s.zxid = Zxid{3, 12}.packed();
  s.op_kind = 1;
  s.payload_bytes = 64;
  s.path = "/a/b";
  s.recv_ns = 1000;
  s.propose_ns = 1500;
  s.fsync_ns = 2100;
  s.quorum_ns = 2600;
  s.commit_ns = 2700;
  s.deliver_ns = 3000;
  s.reply_ns = 3400;
  return s;
}

TEST(OpSpan, StagesDecomposeAdjacentStamps) {
  const OpSpan s = full_span();
  const OpSpan::Stages st = s.stages();
  EXPECT_EQ(st.queue_wait, 500);
  EXPECT_EQ(st.log_fsync, 600);
  EXPECT_EQ(st.quorum_ack, 500);
  EXPECT_EQ(st.commit, 100);
  EXPECT_EQ(st.deliver, 300);
  EXPECT_EQ(st.reply_write, 400);
  EXPECT_EQ(s.total_ns(), 2400);  // recv -> reply
  // The stage sum covers the total exactly when every stamp is present.
  EXPECT_EQ(st.queue_wait + st.log_fsync + st.quorum_ack + st.commit +
                st.deliver + st.reply_write,
            s.total_ns());
}

TEST(OpSpan, MissingStampsYieldMinusOneAndFallbacks) {
  OpSpan s = full_span();
  s.recv_ns = -1;
  s.reply_ns = -1;
  OpSpan::Stages st = s.stages();
  EXPECT_EQ(st.queue_wait, -1);
  EXPECT_EQ(st.reply_write, -1);
  EXPECT_EQ(s.total_ns(), 1500);  // propose -> deliver

  // No fsync stamp: the quorum wait is charged from propose so the stage
  // sum still covers the interval.
  s.fsync_ns = -1;
  st = s.stages();
  EXPECT_EQ(st.log_fsync, -1);
  EXPECT_EQ(st.quorum_ack, 1100);  // propose -> quorum

  // Raced stamps (follower quorum before leader fsync) clamp to 0, never
  // negative.
  OpSpan raced = full_span();
  raced.quorum_ns = raced.fsync_ns - 50;
  EXPECT_EQ(raced.stages().quorum_ack, 0);

  // Incomplete span: no end stamp at all.
  OpSpan open;
  open.propose_ns = 10;
  EXPECT_EQ(open.total_ns(), -1);
}

TEST(SlowLog, ThresholdGatesAdmission) {
  SlowLog log(4, /*threshold_ns=*/1000);
  OpSpan fast = full_span();  // total 2400 >= 1000
  EXPECT_TRUE(log.observe(fast));

  OpSpan below = full_span();
  below.reply_ns = below.recv_ns + 500;
  EXPECT_FALSE(log.observe(below));

  OpSpan incomplete;
  incomplete.propose_ns = 5;
  EXPECT_FALSE(log.observe(incomplete));

  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.total_logged(), 1u);
}

TEST(SlowLog, RingEvictsOldestAndKeepsIds) {
  SlowLog log(3, 0);
  for (std::uint64_t i = 0; i < 5; ++i) {
    OpSpan s = full_span();
    s.cxid = i;
    ASSERT_TRUE(log.observe(s));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_logged(), 5u);

  // entries() is newest-first; the two oldest admissions were evicted.
  const auto all = log.entries();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].span.cxid, 4u);
  EXPECT_EQ(all[1].span.cxid, 3u);
  EXPECT_EQ(all[2].span.cxid, 2u);
  EXPECT_GT(all[0].id, all[1].id);

  const auto top1 = log.entries(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].span.cxid, 4u);

  const std::string jsonl = log.to_jsonl(2);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"total_ns\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"path\":\"/a/b\""), std::string::npos);
}

TEST(LatencyAttribution, SimSpansHaveMonotoneStageStamps) {
  harness::ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 11;
  harness::SimCluster c(cfg);
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  std::vector<OpSpan> spans;
  c.node(l).set_span_observer([&spans](const OpSpan& s) { spans.push_back(s); });

  constexpr std::size_t kOps = 40;
  ASSERT_TRUE(c.replicate_ops(kOps).is_ok());

  // Exactly one span per zxid the leader proposed, each finalized once.
  const std::uint64_t proposed =
      c.node(l).metrics().counter("zab.leader.proposals").value();
  ASSERT_EQ(proposed, kOps);
  ASSERT_EQ(spans.size(), proposed);
  std::set<std::uint64_t> zxids;
  for (const OpSpan& s : spans) zxids.insert(s.zxid);
  const Epoch epoch = c.node(l).last_delivered().epoch;
  EXPECT_EQ(zxids.size(), proposed);
  EXPECT_EQ(*zxids.begin(), (Zxid{epoch, 1}).packed());
  EXPECT_EQ(*zxids.rbegin(),
            (Zxid{epoch, static_cast<std::uint32_t>(proposed)}).packed());

  for (const OpSpan& s : spans) {
    ASSERT_GE(s.propose_ns, 0);
    ASSERT_GE(s.quorum_ns, 0);
    ASSERT_GE(s.commit_ns, 0);
    ASSERT_GE(s.deliver_ns, 0);
    // One clock (the leader's): the pipeline stamps never run backwards.
    EXPECT_LE(s.propose_ns, s.quorum_ns);
    EXPECT_LE(s.quorum_ns, s.commit_ns);
    EXPECT_LE(s.commit_ns, s.deliver_ns);
    if (s.fsync_ns >= 0) {
      EXPECT_GE(s.fsync_ns, s.propose_ns);
    }
    EXPECT_GE(s.total_ns(), 0);
  }

  // Every finalized span fed the per-stage histograms and the total.
  MetricsRegistry& reg = c.node(l).metrics();
  EXPECT_GE(reg.histogram("zab.op.total_ns").count(), kOps);
  EXPECT_GE(reg.histogram("zab.op.stage.quorum_ack").count(), kOps);
  EXPECT_GE(reg.histogram("zab.op.stage.commit").count(), kOps);
  EXPECT_GE(reg.histogram("zab.op.stage.deliver").count(), kOps);

  // The p99 decomposition table renders.
  const std::string table = op_p99_decomposition(reg.snapshot());
  EXPECT_NE(table.find("quorum_ack"), std::string::npos) << table;
  EXPECT_NE(table.find("stage_sum"), std::string::npos) << table;
}

TEST(LatencyAttribution, InjectedSlowFsyncDominatesSlowLogEntry) {
  harness::ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 23;
  harness::SimCluster c(cfg);
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(5).is_ok());  // healthy baseline ops

  // Stall every replica's log device: appends become durable 5 ms after
  // submission. Followers then ack 5 ms late, so the leader's spans charge
  // the wait to the fsync stage.
  for (NodeId id = 1; id <= 3; ++id) {
    c.storage(id).set_scheduler(
        [&c](std::size_t, std::function<void()> cb) {
          c.sim().after(millis(5), std::move(cb));
        });
  }
  c.node(l).slow_log().set_threshold_ns(millis(4));

  const std::uint64_t before = c.node(l).slow_log().total_logged();
  ASSERT_TRUE(c.replicate_ops(10).is_ok());

  const SlowLog& log = c.node(l).slow_log();
  ASSERT_GT(log.total_logged(), before);
  for (const SlowLog::Entry& e : log.entries()) {
    EXPECT_GE(e.total_ns, millis(4));
    const OpSpan::Stages st = e.span.stages();
    // The injected stall lands in log_fsync (leader's own append) and must
    // dominate every other attributed stage.
    ASSERT_GE(st.log_fsync, millis(3)) << e.span.to_json();
    EXPECT_GE(st.log_fsync, st.quorum_ack) << e.span.to_json();
    EXPECT_GE(st.log_fsync, st.commit) << e.span.to_json();
    EXPECT_GE(st.log_fsync, st.deliver) << e.span.to_json();
  }
  EXPECT_NE(log.to_jsonl(1).find("\"log_fsync_ns\""), std::string::npos);
}

TEST(LatencyAttribution, ClientWriteLandsInSlowlogSurfaces) {
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.with_client_service = true;
  cfg.with_admin = true;
  harness::RuntimeCluster cluster(std::move(cfg));
  ASSERT_TRUE(cluster.start().is_ok());
  const NodeId l = cluster.wait_for_leader(seconds(15));
  ASSERT_NE(l, kNoNode);

  // Admit every committed op so one write is guaranteed to land.
  cluster.with_node(l, [](ZabNode& n) { n.slow_log().set_threshold_ns(0); });

  // Connect to the leader so the reply leg is attributed too.
  pb::RemoteClient client(pb::ClientConfig{
      .servers = {{"127.0.0.1", cluster.client_port(l)}}});
  ASSERT_TRUE(client.create("/slow", to_bytes("payload")).is_ok());
  ASSERT_TRUE(client.set("/slow", to_bytes("v2")).is_ok());

  // The leader's ring, read on its loop. It also holds server-internal
  // writes (the session-create op has no client ingress), so the
  // client-stamp checks apply to the newest entry: the client's `set`.
  std::string jsonl;
  cluster.with_node(l,
                    [&jsonl](ZabNode& n) { jsonl = n.slow_log().to_jsonl(); });
  ASSERT_FALSE(jsonl.empty());
  const std::string newest = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(newest.find("\"path\":\"/slow\""), std::string::npos) << newest;
  // The client-facing stamps made it into the span: a live session id and a
  // stamped ingress/reply (no "-1" placeholder).
  EXPECT_NE(newest.find("\"session\":"), std::string::npos);
  EXPECT_EQ(newest.find("\"session\":0,"), std::string::npos) << newest;
  EXPECT_EQ(newest.find("\"reply_ns\":-1"), std::string::npos) << newest;
  EXPECT_EQ(newest.find("\"recv_ns\":-1"), std::string::npos) << newest;

  // Admin-plane surface, with an entry cap.
  auto via_admin = cluster.admin_get(l, "/slowlog?n=1");
  ASSERT_TRUE(via_admin.is_ok());
  const std::string body = net::http_body(via_admin.value());
  EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 1) << body;
  EXPECT_NE(body.find("\"total_ns\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"stages\""), std::string::npos) << body;

  // The leader's decomposition table has the client-side stages populated,
  // and its registry counts the slow-log admissions.
  const MetricsSnapshot snap = cluster.metrics_snapshot(l);
  const std::string table = op_p99_decomposition(snap);
  EXPECT_NE(table.find("queue_wait"), std::string::npos) << table;
  EXPECT_NE(table.find("reply_write"), std::string::npos) << table;
  ASSERT_EQ(snap.gauges.count("zab.slowlog.count"), 1u);
  EXPECT_GE(snap.gauges.at("zab.slowlog.count"), 1);
  cluster.stop();
}

TEST(LatencyAttribution, TraceEpochFilterScopesOneElection) {
  // Satellite: TraceRing events are epoch-tagged, so /tracez?epoch=E can
  // scope a timeline to one election even for the zxid-0 protocol events
  // that used to alias across epochs.
  harness::ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 31;
  harness::SimCluster c(cfg);
  const NodeId l1 = c.wait_for_leader();
  ASSERT_NE(l1, kNoNode);
  ASSERT_TRUE(c.replicate_ops(3).is_ok());
  const Epoch e1 = c.node(l1).epoch();

  c.crash(l1);
  c.run_for(seconds(5));
  const NodeId l2 = c.wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  ASSERT_TRUE(c.replicate_ops(3).is_ok());
  const Epoch e2 = c.node(l2).epoch();
  ASSERT_GT(e2, e1);

  // The new leader's ring holds zxid-0 events from both reigns; the epoch
  // tag separates them.
  bool saw_old = false;
  bool saw_new = false;
  for (const trace::Event& ev : c.node(l2).trace().snapshot()) {
    if (ev.zxid == Zxid::zero()) {
      if (ev.epoch == e2) saw_new = true;
      if (ev.epoch < e2) saw_old = true;
    }
  }
  EXPECT_TRUE(saw_new);
  EXPECT_TRUE(saw_old);

  // Election/recovery phase durations surfaced as metrics (satellite 1).
  MetricsRegistry& reg = c.node(l2).metrics();
  EXPECT_GE(reg.histogram("zab.election.duration_ns").count(), 1u);
  EXPECT_GE(reg.histogram("zab.recovery.sync_ns").count(), 1u);
  EXPECT_GT(reg.gauge("zab.election.last_ns").value(), 0);
  EXPECT_GT(reg.gauge("zab.recovery.last_sync_ns").value(), 0);
}

}  // namespace
}  // namespace zab
