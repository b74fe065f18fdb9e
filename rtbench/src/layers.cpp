#include "layers.h"

#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace rtbench {

namespace {

using zab::trace::Stage;
using Timeline = zab::harness::TraceCollector::ZxidTimeline;

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// First event of `stage` recorded by `recorder` (0 = any recorder), or -1.
std::int64_t first(const Timeline& tl, Stage stage, std::uint32_t recorder) {
  for (const auto& e : tl.events) {
    if (e.stage == stage && (recorder == 0 || e.recorder == recorder)) {
      return e.t;
    }
  }
  return -1;
}

const zab::Histogram* hist(const zab::MetricsSnapshot& s,
                           const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

double hist_us(const zab::Histogram* h, double q) {
  return h && h->count() > 0 ? static_cast<double>(h->quantile(q)) / 1e3 : 0.0;
}

std::uint64_t counter(const zab::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricDef>& layer_metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"gen.late_p50_us", "us"},
      {"gen.late_p99_us", "us"},
      {"gen.cpu_us_per_op", "us"},
      {"gen.read_p99_us", "us"},
      {"gen.write_p99_us", "us"},
      {"client_io.cpu_us_per_op", "us"},
      {"client_io.sys_frac", "fraction"},
      {"client_io.wakeups_per_op", "count"},
      {"client_io.runq_us_per_op", "us"},
      {"loop.leader.cpu_us_per_op", "us"},
      {"loop.follower.cpu_us_per_op", "us"},
      {"loop.leader.wakeups_per_op", "count"},
      {"loop.leader.runq_us_per_op", "us"},
      {"stage.queue_wait_p50_us", "us"},
      {"stage.queue_wait_p99_us", "us"},
      {"zab.msgs_per_op", "count"},
      {"zab.bytes_per_op", "B"},
      {"zab.batch_txns_mean", "count"},
      {"stage.quorum_ack_p50_us", "us"},
      {"stage.commit_p50_us", "us"},
      {"stage.deliver_p50_us", "us"},
      {"tcp.writev_per_op", "count"},
      {"tcp.msgs_per_writev", "count"},
      {"io_other.cpu_us_per_op", "us"},
      {"io_other.sys_frac", "fraction"},
      {"storage.fsyncs_per_op", "count"},
      {"storage.records_per_fsync", "count"},
      {"storage.fsync_p50_us", "us"},
      {"storage.fsync_p99_us", "us"},
      {"stage.log_fsync_p50_us", "us"},
      {"stage.log_fsync_p99_us", "us"},
      {"read.local_frac", "fraction"},
      {"read.parked_p99_us", "us"},
      {"stage.reply_write_p50_us", "us"},
      {"proc.cpu_us_per_op", "us"},
      {"proc.sys_frac", "fraction"},
      {"proc.wakeups_per_op", "count"},
      {"proc.allocs_per_op", "count"},
      {"proc.thread_sum_ratio", "fraction"},
      {"span.joined", "count"},
      {"span.total_p50_us", "us"},
      {"span.client_gap_us", "us"},
      {"self.client_in_p50_us", "us"},
      {"self.ingress_p50_us", "us"},
      {"self.quorum_p50_us", "us"},
      {"self.commit_p50_us", "us"},
      {"self.deliver_p50_us", "us"},
      {"self.out_p50_us", "us"},
      {"trace_overhead_pct", "%"},
      {"trace_overhead_p50_pct", "%"},
  };
  return defs;
}

std::vector<JoinedSpan> join_spans(const std::vector<WriteSpan>& spans,
                                   const std::vector<Timeline>& timelines,
                                   std::uint32_t leader_id) {
  std::unordered_map<std::uint64_t, const Timeline*> by_zxid;
  for (const auto& tl : timelines) by_zxid[tl.zxid.packed()] = &tl;
  std::vector<JoinedSpan> out;
  for (const WriteSpan& w : spans) {
    auto it = by_zxid.find(w.zxid);
    if (it == by_zxid.end()) continue;
    const Timeline& tl = *it->second;
    const std::uint32_t origin = w.conn + 1;
    // The leader owns the op's span: it records CLIENT_RECV (back-dated to
    // the origin's wire ingress) and, for writes it received itself,
    // CLIENT_REPLY. DELIVER is taken at the origin, which answers.
    const std::int64_t recv = first(tl, Stage::kClientRecv, 0);
    const std::int64_t prop = first(tl, Stage::kPropose, leader_id);
    const std::int64_t ack = first(tl, Stage::kAck, leader_id);
    const std::int64_t commit = first(tl, Stage::kCommit, leader_id);
    const std::int64_t deliver = first(tl, Stage::kDeliver, origin);
    if (recv < 0 || prop < 0 || ack < 0 || commit < 0 || deliver < 0) continue;
    JoinedSpan j;
    j.gen = w;
    j.origin = origin;
    j.client_in = us(recv - w.sent_ns);
    j.ingress = us(prop - recv);
    j.quorum = us(ack - prop);
    j.commit = us(commit - ack);
    j.deliver = us(deliver - commit);
    j.out = us(w.recv_ns - deliver);
    if (const auto f = first(tl, Stage::kLogFsync, leader_id); f >= 0) {
      j.leader_fsync = us(f - prop);
    }
    if (const auto r = first(tl, Stage::kClientReply, origin); r >= 0) {
      j.reply_write = us(r - deliver);
    }
    std::string ev = "[";
    char buf[160];
    for (const auto& e : tl.events) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"node\":%u,\"stage\":\"%s\",\"t_ns\":%lld}",
                    ev.size() > 1 ? "," : "", static_cast<unsigned>(e.recorder),
                    zab::trace::stage_name(e.stage),
                    static_cast<long long>(e.t));
      ev += buf;
    }
    ev += "]";
    j.events_json = std::move(ev);
    out.push_back(std::move(j));
  }
  return out;
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<JoinedSpan>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const JoinedSpan& j : spans) {
    std::fprintf(
        f,
        "{\"zxid\":{\"epoch\":%llu,\"counter\":%llu},\"origin\":%u,"
        "\"gen\":{\"due_ns\":%lld,\"send_ns\":%lld,\"recv_ns\":%lld},"
        "\"self_us\":{\"client_in\":%.3f,\"ingress\":%.3f,\"quorum\":%.3f,"
        "\"commit\":%.3f,\"deliver\":%.3f,\"out\":%.3f},"
        "\"leader_fsync_us\":%.3f,\"reply_write_us\":%.3f,\"events\":%s}\n",
        static_cast<unsigned long long>(j.gen.zxid >> 32),
        static_cast<unsigned long long>(j.gen.zxid & 0xffffffffu), j.origin,
        static_cast<long long>(j.gen.due_ns),
        static_cast<long long>(j.gen.sent_ns),
        static_cast<long long>(j.gen.recv_ns), j.client_in, j.ingress,
        j.quorum, j.commit, j.deliver, j.out, j.leader_fsync, j.reply_write,
        j.events_json.c_str());
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> layer_metrics(
    const TracedPhase& t, const ThreadMap& threads,
    const std::vector<JoinedSpan>& joined) {
  std::map<std::string, double> m;
  const PhaseResult& ph = *t.phase;
  const double ops = static_cast<double>(ph.ok);
  const double writes = static_cast<double>(ph.writes_ok);
  auto per_op_us = [&](double ns) { return ratio(ns / 1e3, ops); };

  // --- generator --------------------------------------------------------
  m["gen.late_p50_us"] = percentile(ph.late_us, 0.5);
  m["gen.late_p99_us"] = percentile(ph.late_us, 0.99);
  m["gen.read_p99_us"] = percentile(ph.read_lat_us, 0.99);
  m["gen.write_p99_us"] = percentile(ph.write_lat_us, 0.99);
  const GroupCost gen = group_cost(t.start, t.end, {threads.generator});
  m["gen.cpu_us_per_op"] = per_op_us(gen.cpu_ns);

  // --- thread groups ----------------------------------------------------
  const GroupCost cio = group_cost(t.start, t.end, threads.client_io);
  m["client_io.cpu_us_per_op"] = per_op_us(cio.cpu_ns);
  m["client_io.sys_frac"] = cio.sys_frac();
  m["client_io.wakeups_per_op"] = ratio(cio.wakeups, ops);
  m["client_io.runq_us_per_op"] = per_op_us(cio.runq_ns);

  const GroupCost lead = group_cost(t.start, t.end, {threads.leader_loop});
  const GroupCost fol = group_cost(t.start, t.end, threads.follower_loops);
  m["loop.leader.cpu_us_per_op"] = per_op_us(lead.cpu_ns);
  m["loop.follower.cpu_us_per_op"] = per_op_us(fol.cpu_ns);
  m["loop.leader.wakeups_per_op"] = ratio(lead.wakeups, ops);
  m["loop.leader.runq_us_per_op"] = per_op_us(lead.runq_ns);

  std::set<pid_t> other = threads.all;
  other.erase(threads.generator);
  other.erase(threads.leader_loop);
  for (const pid_t p : threads.follower_loops) other.erase(p);
  for (const pid_t p : threads.client_io) other.erase(p);
  const GroupCost io = group_cost(t.start, t.end, other);
  m["io_other.cpu_us_per_op"] = per_op_us(io.cpu_ns);
  m["io_other.sys_frac"] = io.sys_frac();

  const GroupCost all = group_cost(t.start, t.end, threads.all);
  m["proc.cpu_us_per_op"] = per_op_us(static_cast<double>(t.proc_cpu_ns));
  m["proc.sys_frac"] = all.sys_frac();
  m["proc.wakeups_per_op"] = ratio(all.wakeups, ops);
  m["proc.allocs_per_op"] = ratio(static_cast<double>(t.allocs), ops);
  // Loops + client IO + io_other + generator against getrusage: ~1.0 when
  // the attribution covers every thread.
  m["proc.thread_sum_ratio"] =
      ratio(gen.cpu_ns + cio.cpu_ns + lead.cpu_ns + fol.cpu_ns + io.cpu_ns,
            static_cast<double>(t.proc_cpu_ns));

  // --- registry: leader stages, transport, storage, reads -----------------
  const zab::MetricsSnapshot& leader = t.nodes.at(t.leader_index);
  zab::MetricsSnapshot sum;
  for (const auto& s : t.nodes) sum.merge(s);
  const auto* qw = hist(leader, "zab.op.stage.queue_wait");
  m["stage.queue_wait_p50_us"] = hist_us(qw, 0.5);
  m["stage.queue_wait_p99_us"] = hist_us(qw, 0.99);
  m["stage.quorum_ack_p50_us"] = hist_us(hist(leader, "zab.op.stage.quorum_ack"), 0.5);
  m["stage.commit_p50_us"] = hist_us(hist(leader, "zab.op.stage.commit"), 0.5);
  m["stage.deliver_p50_us"] = hist_us(hist(leader, "zab.op.stage.deliver"), 0.5);
  const auto* lf = hist(leader, "zab.op.stage.log_fsync");
  m["stage.log_fsync_p50_us"] = hist_us(lf, 0.5);
  m["stage.log_fsync_p99_us"] = hist_us(lf, 0.99);
  m["stage.reply_write_p50_us"] =
      hist_us(hist(leader, "zab.op.stage.reply_write"), 0.5);

  const double msgs = static_cast<double>(counter(sum, "net.tcp.msgs_out"));
  const double writev = static_cast<double>(counter(sum, "net.tcp.writev_calls"));
  m["zab.msgs_per_op"] = ratio(msgs, writes);
  m["zab.bytes_per_op"] =
      ratio(static_cast<double>(counter(sum, "net.tcp.bytes_out")), writes);
  const auto* bt = hist(leader, "zab.batch.propose_txns");
  m["zab.batch_txns_mean"] = bt ? bt->mean() : 0.0;
  m["tcp.writev_per_op"] = ratio(writev, writes);
  m["tcp.msgs_per_writev"] = ratio(msgs, writev);

  const double fsyncs = static_cast<double>(counter(sum, "storage.fsyncs"));
  m["storage.fsyncs_per_op"] = ratio(fsyncs, writes);
  const auto* br = hist(sum, "storage.sync_batch_records");
  m["storage.records_per_fsync"] = br ? br->mean() : 0.0;
  const auto* fs = hist(sum, "storage.fsync_ns");
  m["storage.fsync_p50_us"] = hist_us(fs, 0.5);
  m["storage.fsync_p99_us"] = hist_us(fs, 0.99);

  const double local = static_cast<double>(counter(sum, "zab.read.served_local"));
  const double fenced = static_cast<double>(counter(sum, "zab.read.fenced"));
  m["read.local_frac"] = ratio(local, local + fenced);
  m["read.parked_p99_us"] = hist_us(hist(sum, "zab.read.parked_ns"), 0.99);

  // --- joined spans: per-layer self time along the write path ------------
  auto p50 = [&](double JoinedSpan::*field) {
    std::vector<double> v;
    v.reserve(joined.size());
    for (const auto& j : joined) v.push_back(j.*field);
    return percentile(std::move(v), 0.5);
  };
  std::vector<double> total, gap;
  for (const auto& j : joined) {
    total.push_back(static_cast<double>(j.gen.recv_ns - j.gen.sent_ns) / 1e3);
    gap.push_back(j.client_in + j.out);
  }
  m["span.joined"] = static_cast<double>(joined.size());
  m["span.total_p50_us"] = percentile(total, 0.5);
  m["span.client_gap_us"] = percentile(gap, 0.5);
  m["self.client_in_p50_us"] = p50(&JoinedSpan::client_in);
  m["self.ingress_p50_us"] = p50(&JoinedSpan::ingress);
  m["self.quorum_p50_us"] = p50(&JoinedSpan::quorum);
  m["self.commit_p50_us"] = p50(&JoinedSpan::commit);
  m["self.deliver_p50_us"] = p50(&JoinedSpan::deliver);
  m["self.out_p50_us"] = p50(&JoinedSpan::out);
  return m;
}

}  // namespace rtbench
