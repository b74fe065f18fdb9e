// Synchronization explorer: watch the leader choose DIFF / TRUNC / SNAP.
//
// Three scenarios on the simulator, each printing what the rejoining
// follower had, what the leader decided, and what crossed the wire:
//   1. short lag            -> DIFF (replay the missing suffix)
//   2. uncommitted tail     -> TRUNC, then DIFF
//   3. lag beyond retention -> SNAP (full state transfer)
//
//   $ ./examples/sync_explorer
#include <cstdio>

#include "common/logging.h"
#include "harness/sim_cluster.h"

using namespace zab;
using namespace zab::harness;

namespace {

harness::ClusterConfig cluster(std::size_t n, std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

void print_decision(SimCluster& c, NodeId f, const char* scenario) {
  MetricsRegistry& m = c.node(f).metrics();
  const auto truncs = m.counter("zab.recovery.trunc_received").value();
  const auto snaps = m.counter("zab.recovery.snap_received").value();
  const char* decision = snaps ? "SNAP" : (truncs ? "TRUNC + DIFF" : "DIFF");
  std::printf("  leader's decision: %s  (TRUNC=%llu, SNAP=%llu)\n", decision,
              static_cast<unsigned long long>(truncs),
              static_cast<unsigned long long>(snaps));
  std::printf("  follower %u now at %s — scenario '%s' complete\n\n", f,
              to_string(c.node(f).last_delivered()).c_str(), scenario);
}

}  // namespace

int main() {
  logging::set_default_level(LogLevel::kWarn);
  std::printf("== synchronization strategies explorer ==\n\n");

  // ---------- 1. Short lag: DIFF -------------------------------------------
  {
    std::printf("[1] follower misses 40 txns (leader keeps its whole log)\n");
    SimCluster c(cluster(3, 1));
    const NodeId l = c.wait_for_leader();
    const NodeId f = (l == 1) ? 2 : 1;
    (void)c.replicate_ops(20, 64);
    std::printf("  follower %u goes down at %s\n", f,
                to_string(c.node(f).last_delivered()).c_str());
    c.crash(f);
    (void)c.replicate_ops(40, 64);
    std::printf("  leader meanwhile commits up to %s; follower rejoins\n",
                to_string(c.node(l).last_committed()).c_str());
    c.restart(f);
    c.wait_delivered_on({f}, c.node(l).last_committed());
    print_decision(c, f, "DIFF");
  }

  // ---------- 2. Uncommitted tail: TRUNC + DIFF ------------------------------
  {
    std::printf("[2] follower holds an uncommitted tail from a dead epoch\n");
    SimCluster c(cluster(5, 2));
    const NodeId l = c.wait_for_leader();
    const NodeId f = (l == 1) ? 2 : 1;
    (void)c.replicate_ops(20, 64);

    // Isolate {leader, follower} as a minority and push proposals: the
    // follower logs them but they can never commit.
    std::set<NodeId> minority{l, f};
    std::set<NodeId> majority;
    for (NodeId n = 1; n <= 5; ++n) {
      if (!minority.count(n)) majority.insert(n);
    }
    c.network().set_partition({minority, majority});
    for (int i = 0; i < 15; ++i) {
      (void)c.submit(make_op(5000 + static_cast<std::uint64_t>(i), 64));
    }
    c.run_for(millis(30));
    std::printf("  follower %u logged up to %s, but commit stopped at %s\n", f,
                to_string(c.node(f).last_logged()).c_str(),
                to_string(c.node(f).last_delivered()).c_str());
    c.crash(f);
    c.crash(l);  // the tail's epoch dies with its leader
    c.network().heal();
    (void)c.wait_for_leader();
    (void)c.replicate_ops(10, 64);

    std::printf("  new epoch established without those txns; follower rejoins\n");
    c.restart(f);
    const NodeId l2 = c.leader_id();
    c.wait_delivered_on({f}, c.node(l2).last_committed());
    print_decision(c, f, "TRUNC");
    const auto v = c.checker().check();
    std::printf("  (invariant check after abandoning the tail: %zu violations)\n\n",
                v.size());
  }

  // ---------- 3. Lag beyond retention: SNAP -----------------------------------
  {
    std::printf("[3] follower lags far beyond the leader's log retention\n");
    harness::ClusterConfig cfg;
    cfg.n = 3;
    cfg.seed = 3;
    cfg.node.snapshot_every = 100;  // checkpoint often
    cfg.node.log_retain = 50;       // keep only a short log suffix
    SimCluster c(cfg);
    const NodeId l = c.wait_for_leader();
    const NodeId f = (l == 1) ? 2 : 1;
    (void)c.replicate_ops(20, 64);
    c.crash(f);
    (void)c.replicate_ops(1000, 64);
    std::printf("  leader checkpointed %llu times; oldest retained log entry "
                "is far above the follower's %s\n",
                static_cast<unsigned long long>(
                    c.node(l).metrics()
                        .counter("zab.node.snapshots_taken")
                        .value()),
                to_string(Zxid{1, 20}).c_str());
    c.restart(f);
    c.wait_delivered_on({f}, c.node(l).last_committed());
    print_decision(c, f, "SNAP");
  }

  std::printf("done.\n");
  return 0;
}
