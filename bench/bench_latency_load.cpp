// E2 — Commit latency vs. offered load.
//
// Paper artifact: the evaluation's latency figure — client-visible commit
// latency of atomic broadcast under increasing offered load (open-loop
// Poisson arrivals), per ensemble size. Expected shape: flat latency near
// the propagation + log-force floor until the offered rate approaches the
// saturation throughput of E1, then a sharp queueing-driven knee.
#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "common/op_span.h"
#include "harness/runtime_cluster.h"
#include "harness/workload.h"
#include "pb/remote_client.h"

using namespace zab;
using namespace zab::harness;
using namespace zab::bench;

namespace {

double pct(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

struct ThreadedResult {
  bool ok = false;
  double client_p50_us = 0;     // spans ON
  double client_p99_us = 0;
  double off_p50_us = 0;        // spans OFF (interleaved batches)
  double span_p50_us = 0;       // server-side end-to-end span totals
  double span_p99_us = 0;
  double span_mean_us = 0;
  double stage_mean_sum_us = 0;  // sum of per-stage means; ~= span mean
  std::string decomposition;
};

/// Closed-loop client against a real threaded 3-node ensemble (loopback TCP
/// peers and client port), measuring wall-clock write latency on the
/// client and the server's own attribution of the same ops out of the
/// zab.op.* histograms (no observer hook, so the measured cost is exactly
/// what production pays). Span bookkeeping is toggled between interleaved
/// batches on ONE cluster, so the on/off comparison shares sockets, caches,
/// and allocator state.
ThreadedResult run_threaded(std::size_t batches, std::size_t batch_ops) {
  ThreadedResult out;
  RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.with_client_service = true;
  RuntimeCluster cluster(std::move(cfg));
  if (!cluster.start().is_ok()) return out;
  const NodeId l = cluster.wait_for_leader(seconds(15));
  if (l == kNoNode) return out;

  pb::RemoteClient client(pb::ClientConfig{
      .servers = {{"127.0.0.1", cluster.client_port(l)}}});
  const Bytes payload(1024, 0xab);
  if (!client.create("/bench", payload).is_ok()) return out;
  for (std::size_t i = 0; i < 500; ++i) {  // warm-up: sockets, allocator
    if (!client.set("/bench", payload).is_ok()) return out;
  }

  SystemClock clock;
  std::vector<double> on_us;
  std::vector<double> off_us;
  on_us.reserve(batches * batch_ops);
  off_us.reserve(batches * batch_ops);
  for (std::size_t b = 0; b < 2 * batches; ++b) {
    const bool spans_on = (b % 2) == 0;
    cluster.with_node(
        l, [spans_on](ZabNode& n) { n.set_spans_enabled(spans_on); });
    std::vector<double>& sink = spans_on ? on_us : off_us;
    for (std::size_t i = 0; i < batch_ops; ++i) {
      const TimePoint t0 = clock.now();
      if (!client.set("/bench", payload).is_ok()) return out;
      sink.push_back(static_cast<double>(clock.now() - t0) / 1e3);
    }
  }

  out.client_p50_us = pct(on_us, 0.5);
  out.client_p99_us = pct(on_us, 0.99);
  out.off_p50_us = pct(off_us, 0.5);
  const MetricsSnapshot snap = cluster.metrics_snapshot(l);
  if (const auto it = snap.histograms.find("zab.op.total_ns");
      it != snap.histograms.end() && it->second.count() != 0) {
    out.span_p50_us = static_cast<double>(it->second.quantile(0.5)) / 1e3;
    out.span_p99_us = static_cast<double>(it->second.quantile(0.99)) / 1e3;
    out.span_mean_us = it->second.mean() / 1e3;
  }
  for (std::size_t i = 0; i < kNumOpStages; ++i) {
    const auto it = snap.histograms.find(std::string("zab.op.stage.") +
                                         kOpStageNames[i]);
    if (it != snap.histograms.end() && it->second.count() != 0) {
      out.stage_mean_sum_us += it->second.mean() / 1e3;
    }
  }
  out.decomposition = op_p99_decomposition(snap);
  cluster.stop();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(argc, argv, "bench_latency_load");
  quiet_logs();
  banner("E2", "commit latency vs. offered load",
         "DSN'11 evaluation: latency/throughput curve of the broadcast "
         "pipeline up to saturation (1 KiB ops, open-loop clients)");

  for (std::size_t n : {3u, 5u}) {
    std::printf("\n--- ensemble of %zu servers ---\n", n);
    Table t({"offered ops/s", "achieved ops/s", "mean ms", "p50 ms", "p99 ms"});
    // Saturation for 1 KiB ops is ~125e6/(1088*(n-1)) ops/s; sweep to it.
    const double sat = 125e6 / (1088.0 * static_cast<double>(n - 1));
    for (double frac : {0.1, 0.25, 0.5, 0.7, 0.85, 0.95, 1.05}) {
      const double rate = sat * frac;
      harness::ClusterConfig cfg;
      cfg.n = n;
      cfg.seed = 7 * n + static_cast<std::uint64_t>(frac * 100);
      cfg.enable_checker = false;
      cfg.disk.policy = sim::SyncPolicy::kGroupCommit;
      cfg.node.max_outstanding = 1u << 16;
      SimCluster c(cfg);
      const auto res = run_open_loop(c, rate, 1024, millis(300), seconds(1));
      t.row({fmt(rate, 0), fmt(res.throughput_ops, 0),
             fmt(res.latency.mean() / 1e6, 3),
             fmt(static_cast<double>(res.latency.quantile(0.5)) / 1e6, 3),
             fmt(static_cast<double>(res.latency.quantile(0.99)) / 1e6, 3)});
      // Per-stage breakdown at the knee: where in the pipeline
      // (propose->quorum-ack->commit->deliver) does queueing delay build?
      if (frac == 0.85) {
        const NodeId lead = c.leader_id();
        if (lead != kNoNode) {
          std::printf("\nstage breakdown at %.0f%% of saturation (leader):\n",
                      frac * 100);
          const MetricsSnapshot snap = c.node(lead).metrics().snapshot();
          print_stage_breakdown(snap, "sim us");
          std::printf("\nop p99 decomposition (request spans, sim time):\n%s\n",
                      op_p99_decomposition(snap).c_str());
        }
      }
    }
    t.print();
  }

  std::printf(
      "\nexpected shape: sub-millisecond and flat below ~70%% of saturation,\n"
      "then a queueing knee; beyond saturation the achieved rate caps at E1's\n"
      "throughput. The paper reports the same knee on its testbed.\n");

  // --- Request-attribution arm (wall clock, threaded 3-node ensemble) -------
  // Two questions: (1) does the server's own p99 decomposition reconcile
  // with what a client actually measures, and (2) what does stamping spans
  // cost on the hot path?
  std::printf("\n--- request attribution: threaded 3-node ensemble, "
              "closed-loop client, 1 KiB writes ---\n");
  const ThreadedResult res = run_threaded(/*batches=*/8, /*batch_ops=*/1000);
  if (!res.ok) {
    std::fprintf(stderr, "threaded arm failed to run\n");
    return 1;
  }

  Table rec({"client p50_us", "client p99_us", "span p50_us", "span p99_us",
             "span mean_us", "stage mean sum_us", "mean reconcile pct"});
  rec.row({fmt(res.client_p50_us), fmt(res.client_p99_us),
           fmt(res.span_p50_us), fmt(res.span_p99_us), fmt(res.span_mean_us),
           fmt(res.stage_mean_sum_us),
           fmt(res.span_mean_us > 0
                   ? 100.0 * res.stage_mean_sum_us / res.span_mean_us
                   : 0.0)});
  rec.print();
  std::printf("\nleader's op p99 decomposition:\n%s",
              res.decomposition.c_str());

  const double overhead_pct =
      res.off_p50_us > 0
          ? 100.0 * (res.client_p50_us - res.off_p50_us) / res.off_p50_us
          : 0.0;
  Table ovh({"spans on p50_us", "spans off p50_us", "overhead_pct"});
  ovh.row({fmt(res.client_p50_us), fmt(res.off_p50_us), fmt(overhead_pct)});
  ovh.print();
  std::printf(
      "\nthe span/client gap is the client's TCP round trip plus response\n"
      "framing — everything the server-side span cannot see.\n");
  return 0;
}
