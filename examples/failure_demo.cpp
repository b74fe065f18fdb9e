// Failure walkthrough on the deterministic simulator.
//
// Narrates one run of a 5-replica ensemble: election, pipelined broadcast,
// a follower crash, a leader crash mid-pipeline (with proposals in flight),
// re-election, synchronization of the rejoining replicas, and the final
// invariant audit. Everything is virtual time — the run is reproducible
// from the seed.
//
//   $ ./examples/failure_demo [seed]
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "harness/sim_cluster.h"

using namespace zab;
using namespace zab::harness;

namespace {

void show(SimCluster& c, const char* moment) {
  std::printf("\n-- %s (t=%.3fs) --\n", moment, to_seconds(c.sim().now()));
  for (NodeId n = 1; n <= c.size(); ++n) {
    if (!c.is_up(n)) {
      std::printf("  node %u: DOWN\n", n);
      continue;
    }
    auto& node = c.node(n);
    std::printf("  node %u: %-9s epoch=%u logged=%-8s delivered=%-8s\n", n,
                role_name(node.role()), node.epoch(),
                to_string(node.last_logged()).c_str(),
                to_string(node.last_delivered()).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  logging::set_default_level(LogLevel::kWarn);
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  std::printf("== Zab failure walkthrough (seed %llu) ==\n",
              static_cast<unsigned long long>(seed));

  harness::ClusterConfig cfg;
  cfg.n = 5;
  cfg.seed = seed;
  SimCluster c(cfg);

  const NodeId l1 = c.wait_for_leader();
  show(c, "after cold-start election");
  std::printf("  -> node %u leads epoch %u\n", l1, c.node(l1).epoch());

  std::printf("\nreplicating 100 operations...\n");
  if (!c.replicate_ops(100, 128).is_ok()) return 1;
  show(c, "steady state");

  // Crash a follower; progress must continue.
  const NodeId f = (l1 % 5) + 1;
  std::printf("\ncrashing follower %u; committing 100 more ops...\n", f);
  c.crash(f);
  if (!c.replicate_ops(100, 128).is_ok()) return 1;
  show(c, "after follower crash");

  // Crash the leader with proposals still in flight.
  std::printf("\ninjecting 50 proposals and crashing leader %u mid-pipeline...\n",
              l1);
  for (int i = 0; i < 50; ++i) {
    (void)c.submit(make_op(90000 + static_cast<std::uint64_t>(i), 128));
  }
  c.run_for(0);  // the leader's loop turn ends: the proposals leave
  c.crash(l1);
  const NodeId l2 = c.wait_for_leader();
  std::printf("  -> new leader: node %u, epoch %u (in-flight proposals that\n"
              "     reached a quorum survive; the rest are abandoned — the\n"
              "     client would retry them)\n",
              l2, c.node(l2).epoch());
  show(c, "after re-election");

  std::printf("\nrestarting both crashed replicas; they re-sync (DIFF)...\n");
  c.restart(f);
  c.restart(l1);
  if (!c.replicate_ops(10, 128).is_ok()) return 1;
  const Zxid target = c.node(l2).last_committed();
  c.wait_delivered(target);
  show(c, "after recovery");
  const auto resyncs =
      c.node(l1).metrics().counter("zab.recovery.resyncs").value();
  std::printf("  old leader %u is now a %s; resyncs observed: %llu\n", l1,
              role_name(c.node(l1).role()),
              static_cast<unsigned long long>(resyncs));

  std::printf("\n== invariant audit ==\n");
  const auto violations = c.checker().check();
  const auto agreement = c.checker().check_agreement(c.up_nodes());
  std::printf("  deliveries recorded: %llu\n",
              static_cast<unsigned long long>(c.checker().total_deliveries()));
  std::printf("  safety violations:   %zu\n", violations.size());
  std::printf("  agreement failures:  %zu\n", agreement.size());
  for (const auto& v : violations) std::printf("  VIOLATION: %s\n", v.c_str());
  for (const auto& v : agreement) std::printf("  VIOLATION: %s\n", v.c_str());

  if (!violations.empty() || !agreement.empty()) return 1;
  std::printf("\nall PO-atomic-broadcast invariants hold. done.\n");
  return 0;
}
