// Ablation — failure-detector tuning vs. failover outage.
//
// The E4 timeline shows one ~250 ms zero-throughput window after a leader
// crash. That window is governed by the failure detector: followers declare
// the leader dead after `follower_timeout` of silence, then re-elect
// (finalize wait) and re-sync. This bench sweeps the timeout and measures
// (a) the outage: time from leader crash until the new epoch commits its
// first txn, and (b) the false-positive cost: spurious elections during a
// long fault-free run under network jitter. Expected: outage grows linearly
// with the timeout; too-aggressive timeouts start firing spuriously.
#include "bench/bench_common.h"
#include "harness/workload.h"

using namespace zab;
using namespace zab::harness;
using namespace zab::bench;

namespace {

harness::ClusterConfig cfg_for(Duration follower_timeout, std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.enable_checker = false;
  cfg.net.jitter_mean = micros(500);  // realistic jitter stresses detectors
  cfg.node.follower_timeout = follower_timeout;
  cfg.node.leader_quorum_timeout = follower_timeout;
  cfg.node.heartbeat_interval =
      std::max<Duration>(follower_timeout / 4, millis(2));
  cfg.node.snapshot_every = 20000;
  cfg.node.log_retain = 10000;
  return cfg;
}

/// Time from leader crash to the first commit of the next epoch (averaged
/// over several seeds).
double failover_ms(Duration follower_timeout) {
  double total = 0;
  int runs = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimCluster c(cfg_for(follower_timeout, 600 + seed));
    const NodeId l = c.wait_for_leader();
    if (l == kNoNode) continue;
    (void)c.replicate_ops(50, 256);

    c.crash(l);
    const TimePoint t0 = c.sim().now();
    const NodeId l2 = c.wait_for_leader(seconds(30));
    if (l2 == kNoNode) continue;
    // First commit in the new epoch:
    auto r = c.submit(make_op(999999 + seed, 256));
    if (!r.is_ok()) continue;
    if (!c.wait_delivered_on({l2}, r.value(), seconds(30))) continue;
    total += to_millis(c.sim().now() - t0);
    ++runs;
  }
  return runs ? total / runs : -1;
}

/// Spurious elections over a 30 s fault-free loaded run on a *harsh*
/// network (heavy jitter + light loss, WAN-ish) — the regime where an
/// aggressive detector misfires.
std::uint64_t spurious_elections(Duration follower_timeout) {
  harness::ClusterConfig harsh = cfg_for(follower_timeout, 700);
  harsh.net.jitter_mean = millis(3);
  harsh.net.loss_probability = 0.002;
  SimCluster c(harsh);
  const NodeId l = c.wait_for_leader();
  if (l == kNoNode) return 999;
  auto rounds = [&c](NodeId n) {
    return c.node(n).metrics().counter("zab.election.rounds").value();
  };
  std::uint64_t base = 0;
  for (NodeId n = 1; n <= 5; ++n) base += rounds(n);
  const auto res = run_closed_loop(c, 64, 1024, millis(200), seconds(30));
  (void)res;
  std::uint64_t after = 0;
  for (NodeId n = 1; n <= 5; ++n) {
    if (c.is_up(n)) after += rounds(n);
  }
  return after - base;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv, "bench_failover_ablation");
  quiet_logs();
  banner("A2", "failure-detector timeout vs. failover outage (ablation)",
         "quantifies E4's outage window: detector aggressiveness trades "
         "failover speed against spurious elections");

  Table t({"follower timeout", "failover ms (crash -> first commit)",
           "spurious elections in 30s (harsh net, no faults)"});
  for (Duration to : {millis(10), millis(25), millis(50), millis(100),
                      millis(200), millis(400), millis(800)}) {
    const double fo = failover_ms(to);
    const auto spur = spurious_elections(to);
    t.row({format_duration(to), fo < 0 ? "n/a" : fmt(fo, 1), fmt_int(spur)});
  }
  t.print();

  std::printf(
      "\nexpected shape: failover time ~ timeout + election/sync constant;\n"
      "very small timeouts risk spurious elections under jitter and load.\n"
      "ZooKeeper defaults to several heartbeats of slack for this reason.\n");
  return 0;
}
