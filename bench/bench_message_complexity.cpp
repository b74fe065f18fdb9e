// E8 — Message complexity and commit latency in message delays.
//
// Paper artifact: the protocol-analysis table — per committed transaction,
// how many messages each role sends, and how many one-way message delays a
// commit takes, for Zab and for Multi-Paxos, as the ensemble grows. Counts
// are measured from instrumented runs (not derived on paper), using a
// near-zero-latency network so queueing doesn't blur the delay count, and
// one op in flight: the paper's per-txn analysis assumes a frame per
// message, while Zab's leader coalesces the txns of one loop turn (E8b).
#include "bench/bench_common.h"
#include "harness/paxos_cluster.h"
#include "harness/workload.h"

using namespace zab;
using namespace zab::harness;
using namespace zab::bench;

namespace {

struct Complexity {
  double leader_msgs_per_op;
  double follower_msgs_per_op;  // per follower
  double total_msgs_per_op;
  double commit_delays;  // commit latency / one-way delay
};

Complexity measure_zab(std::size_t n, std::size_t in_flight) {
  harness::ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = 80 + n;
  cfg.enable_checker = false;
  cfg.net.base_latency = millis(1);
  cfg.net.jitter_mean = 0;
  cfg.net.egress_bytes_per_sec = 1e12;  // isolate delay counting
  cfg.disk.policy = sim::SyncPolicy::kNoSync;
  SimCluster c(cfg);
  const NodeId l = c.wait_for_leader();
  auto counter = [&c](NodeId i, const char* name) {
    return c.node(i).metrics().counter(name).value();
  };

  // Snapshot counters after establishment, then run the closed loop.
  const auto leader_before = counter(l, "zab.node.msgs_sent");
  std::uint64_t followers_before = 0;
  for (NodeId i = 1; i <= n; ++i) {
    if (i != l) followers_before += counter(i, "zab.node.msgs_sent");
  }
  const auto net_before = c.network().stats().messages_sent;

  (void)run_closed_loop(c, in_flight, 64, millis(200), seconds(2));
  // Use actual committed count over the whole window for stable ratios.
  const double ops = static_cast<double>(counter(l, "zab.leader.commits"));
  const double leader_msgs =
      static_cast<double>(counter(l, "zab.node.msgs_sent") - leader_before);
  std::uint64_t followers_after = 0;
  for (NodeId i = 1; i <= n; ++i) {
    if (i != l) followers_after += counter(i, "zab.node.msgs_sent");
  }
  const double follower_msgs =
      static_cast<double>(followers_after - followers_before) /
      static_cast<double>(n - 1);
  const double total =
      static_cast<double>(c.network().stats().messages_sent - net_before);

  // Commit latency in one-way delays: measure a single isolated op.
  Histogram lat;
  {
    harness::ClusterConfig cfg2 = cfg;
    cfg2.seed += 1;
    SimCluster c2(cfg2);
    const auto r2 = run_closed_loop(c2, 1, 64, millis(200), seconds(1));
    lat.merge(r2.latency);
  }
  return {leader_msgs / ops, follower_msgs / ops, total / ops,
          lat.mean() / static_cast<double>(millis(1))};
}

Complexity measure_paxos(std::size_t n) {
  PaxosClusterConfig cfg;
  cfg.n = n;
  cfg.seed = 80 + n;
  cfg.net.base_latency = millis(1);
  cfg.net.jitter_mean = 0;
  cfg.net.egress_bytes_per_sec = 1e12;
  cfg.disk.policy = sim::SyncPolicy::kNoSync;
  PaxosSimCluster c(cfg);
  const NodeId l = c.wait_for_leader();
  if (l == kNoNode) return {};

  const auto net_before_probe = c.network().stats().messages_sent;
  (void)net_before_probe;

  struct St {
    std::uint64_t committed = 0;
    std::uint64_t seq = 1;
    TimePoint submit_t = 0;
    Histogram lat;
  } st;
  auto submit = [&] {
    Bytes op(64);
    std::memcpy(op.data(), &st.seq, 8);
    ++st.seq;
    st.submit_t = c.sim().now();
    (void)c.node(l).submit(std::move(op));
  };
  c.set_deliver_hook([&](NodeId node, paxos::Slot, const Bytes& v) {
    if (node != l || v.empty()) return;
    ++st.committed;
    st.lat.record(static_cast<std::uint64_t>(c.sim().now() - st.submit_t));
    submit();  // window of 1: clean delay measurement
  });

  const auto leader_before = c.node(l).stats().messages_sent;
  std::uint64_t followers_before = 0;
  for (NodeId i = 1; i <= n; ++i) {
    if (i != l) followers_before += c.node(i).stats().messages_sent;
  }
  const auto net_before = c.network().stats().messages_sent;
  const auto committed_before = st.committed;

  submit();
  c.run_for(seconds(2));

  const double ops = static_cast<double>(st.committed - committed_before);
  const double leader_msgs =
      static_cast<double>(c.node(l).stats().messages_sent - leader_before);
  std::uint64_t followers_after = 0;
  for (NodeId i = 1; i <= n; ++i) {
    if (i != l) followers_after += c.node(i).stats().messages_sent;
  }
  const double follower_msgs =
      static_cast<double>(followers_after - followers_before) /
      static_cast<double>(n - 1);
  const double total =
      static_cast<double>(c.network().stats().messages_sent - net_before);
  c.set_deliver_hook(nullptr);
  return {leader_msgs / ops, follower_msgs / ops, total / ops,
          st.lat.mean() / static_cast<double>(millis(1))};
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv, "bench_message_complexity");
  quiet_logs();
  banner("E8", "message complexity per committed txn (measured)",
         "DSN'11 protocol analysis: messages per transaction and commit "
         "latency in one-way message delays, Zab vs Multi-Paxos");

  Table t({"protocol", "servers", "leader msgs/op", "follower msgs/op",
           "total msgs/op", "commit delay (1-way hops)"});
  for (std::size_t n : {3u, 5u, 7u}) {
    const auto z = measure_zab(n, 1);
    t.row({"Zab", fmt_int(n), fmt(z.leader_msgs_per_op, 2),
           fmt(z.follower_msgs_per_op, 2), fmt(z.total_msgs_per_op, 2),
           fmt(z.commit_delays, 2)});
    const auto p = measure_paxos(n);
    t.row({"Multi-Paxos", fmt_int(n), fmt(p.leader_msgs_per_op, 2),
           fmt(p.follower_msgs_per_op, 2), fmt(p.total_msgs_per_op, 2),
           fmt(p.commit_delays, 2)});
  }
  t.print();

  std::printf(
      "\nexpected (one op in flight): both protocols send 2(n-1) leader\n"
      "messages per op (propose+commit / accept+chosen) and 1 per follower\n"
      "(ack/accepted); commit takes ~2 one-way delays at the leader\n"
      "(propose -> ack) plus local work — identical asymptotics; Zab's\n"
      "commit message is id-only, which matters for bytes (E5), not\n"
      "message counts.\n");

  // E8b — wire batching (docs/PROTOCOL.md §14): the leader sends the txns of
  // one loop turn as one PROPOSEBATCH, followers ACK a batch once and one
  // watermark COMMIT covers every txn it decides, so the per-txn message
  // cost falls as more ops are in flight. Sweep the ops in flight at n=3 and
  // report the reduction in total wire messages per committed txn.
  std::printf("\n");
  banner("E8b", "message complexity with wire batching (n=3)",
         "end-of-turn batching: frames per committed txn vs. ops in flight");
  Table bt({"ops in flight", "leader msgs/op", "follower msgs/op",
            "total msgs/op", "reduction vs 1 in flight"});
  double base_total = 0;
  double w8_total = 0;
  for (std::size_t w : {1u, 8u, 32u}) {
    const auto z = measure_zab(3, w);
    if (w == 1) base_total = z.total_msgs_per_op;
    if (w == 8) w8_total = z.total_msgs_per_op;
    const double reduction =
        z.total_msgs_per_op > 0 ? base_total / z.total_msgs_per_op : 0;
    bt.row({fmt_int(w), fmt(z.leader_msgs_per_op, 2),
            fmt(z.follower_msgs_per_op, 2), fmt(z.total_msgs_per_op, 2),
            fmt(reduction, 2)});
  }
  bt.print();

  // Acceptance gate: 8 ops in flight must cut total wire messages per
  // committed txn by at least 3x relative to one op in flight.
  const double reduction8 = w8_total > 0 ? base_total / w8_total : 0;
  std::printf("\nbatching reduction at 8 in flight: %.2fx (gate: >= 3.0x)\n",
              reduction8);
  if (reduction8 < 3.0) {
    std::fprintf(stderr,
                 "FAIL: 8 ops in flight reduced messages/op by only "
                 "%.2fx (< 3.0x): %.2f -> %.2f msgs/op\n",
                 reduction8, base_total, w8_total);
    return 1;
  }
  return 0;
}
