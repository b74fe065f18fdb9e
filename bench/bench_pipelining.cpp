// E3 — Effect of pipelining (outstanding proposals).
//
// Paper artifact: Zab's design discussion — the leader keeps many proposals
// in flight (two-phase commit without aborts lets it pipeline), which is
// what makes the protocol "high-performance". We sweep the closed-loop
// window from 1 (strictly sequential commits) to 1024. Expected shape:
// throughput grows ~linearly with the window until the leader NIC (or the
// log device) saturates, then flattens; latency starts rising once requests
// queue behind the full pipe. Messages per op fall as the window grows: the
// leader sends the txns of one loop turn as one frame (docs/PROTOCOL.md §14).
#include "bench/bench_common.h"
#include "harness/workload.h"

using namespace zab;
using namespace zab::harness;
using namespace zab::bench;

int main(int argc, char** argv) {
  parse_bench_args(argc, argv, "bench_pipelining");
  quiet_logs();
  banner("E3", "throughput vs. outstanding proposals (pipelining)",
         "DSN'11 design rationale: multiple outstanding transactions are "
         "the point of primary-order broadcast (cf. abstract / §1)");

  Table t({"outstanding", "ops/s", "mean latency ms", "p99 ms",
           "msgs per committed op"});
  for (std::size_t window : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                             1024u}) {
    harness::ClusterConfig cfg;
    cfg.n = 3;
    cfg.seed = 1000 + window;
    cfg.enable_checker = false;
    cfg.disk.policy = sim::SyncPolicy::kGroupCommit;
    cfg.disk.sync_latency = micros(200);
    cfg.node.max_outstanding = 4096;
    SimCluster c(cfg);
    const auto res = run_closed_loop(c, window, 1024, millis(300), seconds(1));
    const double msgs_per_op =
        res.committed ? static_cast<double>(res.messages_sent) /
                            static_cast<double>(res.committed)
                      : 0;
    t.row({fmt_int(window), fmt(res.throughput_ops, 0),
           fmt(res.latency.mean() / 1e6, 3),
           fmt(static_cast<double>(res.latency.quantile(0.99)) / 1e6, 3),
           fmt(msgs_per_op, 2)});
  }
  t.print();

  std::printf(
      "\nexpected shape: ~1/RTT ops/s at window=1, scaling up near-linearly\n"
      "until the NIC saturates (~60k ops/s for 3 servers at 1 KiB), then\n"
      "flat throughput with linearly growing latency. Messages per op start\n"
      "at ~3 per follower and fall as the window grows: more txns share\n"
      "each PROPOSEBATCH, ACK and COMMIT frame, so pipelining adds no\n"
      "message cost.\n");
  return 0;
}
