// E5 — Zab vs. Multi-Paxos: primary order and performance.
//
// Paper artifact: Figure 1 / §1-2 — with multiple outstanding transactions
// per primary, a Paxos-based replicated log can deliver a sequence that no
// primary ever generated (a new leader fills gap slots independently),
// while Zab's synchronization phase makes such runs impossible. Part (a)
// replays the exact Figure-1 schedule against both protocols and reports
// whether a causal (primary-order) violation occurred. Part (b) compares
// steady-state performance of the two pipelines on identical network/disk
// models.
#include <algorithm>

#include "bench/bench_common.h"
#include "harness/paxos_cluster.h"
#include "harness/workload.h"

using namespace zab;
using namespace zab::harness;
using namespace zab::bench;

namespace {

Bytes tagged(std::uint32_t primary, std::uint32_t seq) {
  BufWriter w;
  w.u32(primary);
  w.u32(seq);
  return std::move(w).take();
}

struct Tag {
  std::uint32_t primary;
  std::uint32_t seq;
};

Tag untag(const Bytes& b) {
  BufReader r(b);
  Tag t{r.u32(), r.u32()};
  return t;
}

/// A delivered stream violates primary order if some (p, i) with i > 1 is
/// delivered without (p, i-1) delivered before it: the incremental state
/// change (p, i) depends on (p, i-1) (paper §1: "if it delivers a given
/// state change, all changes it depends upon must be delivered first").
bool violates_primary_order(const std::vector<Tag>& stream) {
  std::map<std::uint32_t, std::uint32_t> last_seq;  // primary -> max seq seen
  for (const auto& t : stream) {
    if (t.primary == 0) continue;  // no-op filler
    auto it = last_seq.find(t.primary);
    const std::uint32_t prev = it == last_seq.end() ? 0 : it->second;
    if (t.seq > prev + 1) return true;  // dependency skipped
    last_seq[t.primary] = std::max(prev, t.seq);
  }
  return false;
}

// ---- Part (a): the Figure-1 schedule against Multi-Paxos ----------------------

bool paxos_figure1_violates() {
  PaxosClusterConfig cfg;
  cfg.seed = 99;
  PaxosSimCluster c(cfg);
  std::vector<Tag> delivered_at_2;
  c.set_deliver_hook([&](NodeId n, paxos::Slot, const Bytes& v) {
    if (n == 2 && v.size() >= 8) delivered_at_2.push_back(untag(v));
  });

  // Primary P1 (ballot ⟨1,1⟩) proposes C1=(1,1)@slot1 and C2=(1,2)@slot2
  // concurrently. Only the Accept for slot 2 reaches P3; then P1 crashes.
  const paxos::Ballot b1 = paxos::make_ballot(1, 1);
  c.node(3).on_message(
      1, encode_paxos_message(paxos::AcceptMsg{b1, 2, tagged(1, 2)}));

  // P2 has a client value C3=(2,1) queued; the normal election path makes
  // P2 or P3 run Prepare over slots >= 1, adopt C2@2, and fill slot 1.
  (void)c.node(2).submit(tagged(2, 1));
  c.run_for(seconds(3));
  c.wait_delivered(2, seconds(10));

  return violates_primary_order(delivered_at_2);
}

// ---- Part (a'): the same adversity against Zab --------------------------------

bool zab_figure1_violates() {
  harness::ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 99;
  cfg.enable_checker = false;
  SimCluster c(cfg);
  std::map<NodeId, std::vector<Tag>> delivered;
  c.add_deliver_hook([&](NodeId n, const Txn& t) {
    if (t.data.size() >= 8) delivered[n].push_back(untag(t.data));
  });

  const NodeId p1 = c.wait_for_leader();
  if (p1 == kNoNode) return true;

  // The primary broadcasts C1, C2 back-to-back (two outstanding txns) and
  // we immediately sever its link to one follower and crash it, so the
  // proposals reach the followers only partially — the Zab analogue of the
  // Figure-1 message pattern.
  (void)c.node(p1).broadcast(tagged(1, 1));
  c.run_for(0);  // the primary's loop turn ends: C1's propose leaves
  const NodeId f1 = (p1 % 3) + 1;
  c.network().block_pair(p1, f1);  // C2's propose cannot reach f1
  (void)c.node(p1).broadcast(tagged(1, 2));
  c.run_for(millis(1));  // let partial propagation happen
  c.crash(p1);
  c.network().heal();

  // New epoch: submit a new primary's value, let everything settle.
  const NodeId p2 = c.wait_for_leader(seconds(10));
  if (p2 != kNoNode) (void)c.node(p2).broadcast(tagged(2, 1));
  c.run_for(seconds(2));
  c.restart(p1);
  c.run_for(seconds(2));

  for (auto& [n, stream] : delivered) {
    if (violates_primary_order(stream)) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv, "bench_zab_vs_paxos");
  quiet_logs();
  banner("E5", "Zab vs. Multi-Paxos: primary order + performance",
         "DSN'11 Figure 1 (Paxos run violating primary order) and the "
         "protocol comparison that motivates Zab");

  // --- (a) primary-order behaviour, 200 adversarial schedules each ----------
  std::printf("\n(a) Figure-1 schedule, deterministic replay:\n");
  const bool paxos_bad = paxos_figure1_violates();
  const bool zab_bad = zab_figure1_violates();
  Table ta({"protocol", "primary-order violation observed"});
  ta.row({"Multi-Paxos", paxos_bad ? "YES (C2 delivered without C1)" : "no"});
  ta.row({"Zab", zab_bad ? "YES (BUG!)" : "no (sync phase forbids it)"});
  ta.print();

  // Randomized adversarial sweep for Zab: many seeds, partial links +
  // leader crashes with 2 outstanding txns; Zab must never violate.
  int zab_violations = 0;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    harness::ClusterConfig cfg;
    cfg.n = 3;
    cfg.seed = 1000 + static_cast<std::uint64_t>(trial);
    cfg.enable_checker = false;
    SimCluster c(cfg);
    std::map<NodeId, std::vector<Tag>> delivered;
    c.add_deliver_hook([&](NodeId n, const Txn& t) {
      if (t.data.size() >= 8) delivered[n].push_back(untag(t.data));
    });
    const NodeId l = c.wait_for_leader();
    if (l == kNoNode) continue;
    Rng rng(static_cast<std::uint64_t>(trial));
    for (std::uint32_t s = 1; s <= 4; ++s) {
      (void)c.node(l).broadcast(tagged(1, s));
      c.run_for(0);  // one loop turn per txn, so a block hits the later ones
      if (rng.chance(0.5)) {
        c.network().block_pair(l, (l % 3) + 1);
      }
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.range(0, 3))));
    c.crash(l);
    c.network().heal();
    const NodeId l2 = c.wait_for_leader(seconds(10));
    if (l2 != kNoNode) (void)c.node(l2).broadcast(tagged(2, 1));
    c.run_for(seconds(2));
    for (auto& [n, stream] : delivered) {
      if (violates_primary_order(stream)) {
        ++zab_violations;
        break;
      }
    }
  }
  std::printf("\nrandomized adversarial sweep (%d schedules): Zab primary-order "
              "violations = %d\n", kTrials, zab_violations);

  // --- (b) steady-state performance comparison ------------------------------
  std::printf("\n(b) steady-state performance, identical net+disk models, "
              "closed loop (256 outstanding), 1 KiB ops:\n");
  Table tb({"protocol", "servers", "ops/s", "mean latency ms", "p99 ms"});
  for (std::size_t n : {3u, 5u}) {
    {
      harness::ClusterConfig cfg;
      cfg.n = n;
      cfg.seed = 5 + n;
      cfg.enable_checker = false;
      cfg.disk.policy = sim::SyncPolicy::kGroupCommit;
      cfg.node.max_outstanding = 4096;
      SimCluster c(cfg);
      const auto r = run_closed_loop(c, 256, 1024, millis(300), seconds(1));
      tb.row({"Zab", fmt_int(n), fmt(r.throughput_ops, 0),
              fmt(r.latency.mean() / 1e6, 3),
              fmt(static_cast<double>(r.latency.quantile(0.99)) / 1e6, 3)});
    }
    {
      PaxosClusterConfig cfg;
      cfg.n = n;
      cfg.seed = 5 + n;
      cfg.disk.policy = sim::SyncPolicy::kGroupCommit;
      cfg.node.max_outstanding = 4096;
      PaxosSimCluster c(cfg);
      const NodeId l = c.wait_for_leader();
      if (l == kNoNode) continue;
      // Closed-loop driver for Paxos.
      struct St {
        std::unordered_map<std::uint64_t, TimePoint> t0;
        Histogram lat;
        std::uint64_t committed = 0;
        bool measuring = false;
        std::uint64_t seq = 1;
      } st;
      auto submit = [&] {
        Bytes op(1024);
        std::memcpy(op.data(), &st.seq, 8);
        const std::uint64_t key = st.seq++;
        if (c.node(l).submit(std::move(op)).is_ok()) {
          st.t0[key] = c.sim().now();
        }
      };
      c.set_deliver_hook([&](NodeId node, paxos::Slot, const Bytes& v) {
        if (node != l || v.size() < 8) return;
        std::uint64_t key = 0;
        std::memcpy(&key, v.data(), 8);
        auto it = st.t0.find(key);
        if (it == st.t0.end()) return;
        if (st.measuring) {
          st.lat.record(static_cast<std::uint64_t>(c.sim().now() - it->second));
          ++st.committed;
        }
        st.t0.erase(it);
        submit();
      });
      for (int i = 0; i < 256; ++i) submit();
      c.run_for(millis(300));
      st.measuring = true;
      const TimePoint m0 = c.sim().now();
      c.run_for(seconds(1));
      st.measuring = false;
      const double secs = to_seconds(c.sim().now() - m0);
      tb.row({"Multi-Paxos", fmt_int(n),
              fmt(static_cast<double>(st.committed) / secs, 0),
              fmt(st.lat.mean() / 1e6, 3),
              fmt(static_cast<double>(st.lat.quantile(0.99)) / 1e6, 3)});
      c.set_deliver_hook(nullptr);
    }
  }
  tb.print();

  std::printf(
      "\nexpected: part (a) is the paper's point — only Zab preserves\n"
      "primary order with multiple outstanding txns. In (b) Zab sustains\n"
      "~2x the throughput because its COMMIT carries only a zxid while\n"
      "the Paxos learn message (CHOSEN) re-ships the full value, doubling\n"
      "the leader's egress per operation at equal NIC bandwidth.\n");
  return (paxos_bad && !zab_bad && zab_violations == 0) ? 0 : 1;
}
