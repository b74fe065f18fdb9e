#include "common/op_span.h"

#include <cstdio>

#include "common/json.h"
#include "common/metrics_registry.h"

namespace zab {

namespace {

/// b - a when both stamped, clamped at 0 (cross-actor stamps can race);
/// -1 when either endpoint is missing.
std::int64_t delta(std::int64_t a, std::int64_t b) {
  if (a < 0 || b < 0) return -1;
  return b > a ? b - a : 0;
}

}  // namespace

OpSpan::Stages OpSpan::stages() const {
  Stages s;
  s.queue_wait = delta(recv_ns, propose_ns);
  s.log_fsync = delta(propose_ns, fsync_ns);
  // When the fsync stamp is missing, charge the quorum wait from propose so
  // the stage sum still covers the whole interval.
  s.quorum_ack =
      fsync_ns >= 0 ? delta(fsync_ns, quorum_ns) : delta(propose_ns, quorum_ns);
  s.commit = delta(quorum_ns, commit_ns);
  s.deliver = delta(commit_ns, deliver_ns);
  s.reply_write = delta(deliver_ns, reply_ns);
  return s;
}

std::int64_t OpSpan::total_ns() const {
  const std::int64_t start = recv_ns >= 0 ? recv_ns : propose_ns;
  const std::int64_t end = reply_ns >= 0 ? reply_ns : deliver_ns;
  return delta(start, end);
}

std::string OpSpan::to_json() const {
  const Stages st = stages();
  std::string out = "{";
  out += json::key("session") + json::num(session_id) + ',';
  out += json::key("cxid") + json::num(cxid) + ',';
  out += json::key("packed") + json::num(zxid) + ',';
  out += json::key("kind") + json::num(std::uint64_t{op_kind}) + ',';
  out += json::key("bytes") + json::num(std::uint64_t{payload_bytes}) + ',';
  out += json::key("path") + json::str(path) + ',';
  out += json::key("recv_ns") + json::num(recv_ns) + ',';
  out += json::key("propose_ns") + json::num(propose_ns) + ',';
  out += json::key("fsync_ns") + json::num(fsync_ns) + ',';
  out += json::key("quorum_ns") + json::num(quorum_ns) + ',';
  out += json::key("commit_ns") + json::num(commit_ns) + ',';
  out += json::key("deliver_ns") + json::num(deliver_ns) + ',';
  out += json::key("reply_ns") + json::num(reply_ns) + ',';
  out += json::key("stages");
  out += '{';
  out += json::key("queue_wait_ns") + json::num(st.queue_wait) + ',';
  out += json::key("log_fsync_ns") + json::num(st.log_fsync) + ',';
  out += json::key("quorum_ack_ns") + json::num(st.quorum_ack) + ',';
  out += json::key("commit_ns") + json::num(st.commit) + ',';
  out += json::key("deliver_ns") + json::num(st.deliver) + ',';
  out += json::key("reply_write_ns") + json::num(st.reply_write);
  out += "},";
  out += json::key("total_ns") + json::num(total_ns());
  out += '}';
  return out;
}

std::string op_p99_decomposition(const MetricsSnapshot& snap) {
  char buf[160];
  std::string out;
  double p99_sum_us = 0;
  for (std::size_t i = 0; i < kNumOpStages; ++i) {
    const auto it =
        snap.histograms.find(std::string("zab.op.stage.") + kOpStageNames[i]);
    if (it == snap.histograms.end() || it->second.count() == 0) continue;
    const auto& h = it->second;
    const double p50 = static_cast<double>(h.quantile(0.5)) / 1e3;
    const double p99 = static_cast<double>(h.quantile(0.99)) / 1e3;
    p99_sum_us += p99;
    std::snprintf(buf, sizeof(buf),
                  "%-12s count=%-8llu p50_us=%-10.1f p99_us=%.1f\n",
                  kOpStageNames[i],
                  static_cast<unsigned long long>(h.count()), p50, p99);
    out += buf;
  }
  if (out.empty()) return out;
  std::snprintf(buf, sizeof(buf), "%-12s p99_us=%.1f\n", "stage_sum",
                p99_sum_us);
  out += buf;
  if (const auto it = snap.histograms.find("zab.op.total_ns");
      it != snap.histograms.end() && it->second.count() != 0) {
    const double total_p99 =
        static_cast<double>(it->second.quantile(0.99)) / 1e3;
    std::snprintf(buf, sizeof(buf), "%-12s p99_us=%.1f (stage sum = %.0f%%)\n",
                  "total", total_p99,
                  total_p99 > 0 ? 100.0 * p99_sum_us / total_p99 : 0.0);
    out += buf;
  }
  return out;
}

}  // namespace zab
