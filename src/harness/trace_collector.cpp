#include "harness/trace_collector.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.h"
#include "net/admin_server.h"
#include "pb/admin_status.h"

namespace zab::harness {

namespace {

// First event matching (stage, recorder) in a time-ordered timeline; -1 if
// absent. recorder == kNoNode matches any recorder.
std::int64_t first_time(const std::vector<TraceCollector::MergedEvent>& evs,
                        trace::Stage stage, NodeId recorder) {
  for (const auto& e : evs) {
    if (e.stage == stage && (recorder == kNoNode || e.recorder == recorder)) {
      return e.t;
    }
  }
  return -1;
}

std::int64_t clamp0(std::int64_t ns) { return ns < 0 ? 0 : ns; }

}  // namespace

void TraceCollector::add(const trace::TraceSnapshot& snap,
                         std::int64_t offset_ns) {
  NodeTrace nt;
  nt.recorder = snap.recorder;
  nt.events.reserve(snap.events.size());
  for (trace::Event e : snap.events) {
    e.t += offset_ns;
    nt.events.push_back(e);
  }
  events_added_ += nt.events.size();
  traces_.push_back(std::move(nt));
}

TraceCollector TraceCollector::of_rings(
    const std::vector<trace::TraceSnapshot>& rings,
    const std::map<NodeId, std::int64_t>& offsets) {
  TraceCollector tc;
  for (const trace::TraceSnapshot& ring : rings) {
    const auto it = offsets.find(ring.recorder);
    tc.add(ring, it == offsets.end() ? 0 : -it->second);
  }
  return tc;
}

std::vector<TraceCollector::ZxidTimeline> TraceCollector::merge() {
  std::map<std::uint64_t, ZxidTimeline> by_zxid;
  for (const NodeTrace& nt : traces_) {
    for (const trace::Event& e : nt.events) {
      ZxidTimeline& tl = by_zxid[e.zxid.packed()];
      tl.zxid = e.zxid;
      tl.events.push_back(MergedEvent{nt.recorder, e.node, e.stage, e.t});
    }
  }

  // The leader is the recorder of kAck/kCommit quorum events; identify it so
  // hops know which PROPOSE is "the leader's". A zxid seen only on
  // followers (leader's ring wrapped) yields no cross-node hops.
  std::vector<ZxidTimeline> out;
  out.reserve(by_zxid.size());
  for (auto& [packed, tl] : by_zxid) {
    std::sort(tl.events.begin(), tl.events.end(),
              [](const MergedEvent& a, const MergedEvent& b) {
                if (a.t != b.t) return a.t < b.t;
                return static_cast<int>(a.stage) < static_cast<int>(b.stage);
              });
    if (packed != 0) {
      NodeId leader = kNoNode;
      for (const auto& e : tl.events) {
        if (e.stage == trace::Stage::kAck ||
            e.stage == trace::Stage::kCommit) {
          // kCommit is recorded by every node; the one that also recorded
          // kAck (quorum) is the leader. Prefer kAck, fall back to the
          // earliest kCommit recorder.
          if (e.stage == trace::Stage::kAck) {
            leader = e.recorder;
            break;
          }
          if (leader == kNoNode) leader = e.recorder;
        }
      }
      const std::int64_t l_prop =
          first_time(tl.events, trace::Stage::kPropose, leader);
      const std::int64_t l_ack =
          first_time(tl.events, trace::Stage::kAck, leader);
      const std::int64_t l_commit =
          first_time(tl.events, trace::Stage::kCommit, leader);

      auto hop = [&tl, this](const char* name, NodeId from, NodeId to,
                             std::int64_t a, std::int64_t b) {
        if (a < 0 || b < 0) return;
        const std::int64_t ns = clamp0(b - a);
        tl.hops.push_back(Hop{name, from, to, ns});
        hops_->histogram(std::string("zab.hop.") + name + "_ns")
            .record(static_cast<std::uint64_t>(ns));
      };

      for (const auto& e : tl.events) {
        if (e.recorder == leader) continue;
        if (e.stage == trace::Stage::kPropose && leader != kNoNode) {
          hop("propose_net", leader, e.recorder, l_prop, e.t);
          const std::int64_t f_fsync =
              first_time(tl.events, trace::Stage::kLogFsync, e.recorder);
          hop("log_fsync", e.recorder, e.recorder, e.t, f_fsync);
        }
        if (e.stage == trace::Stage::kCommit && leader != kNoNode) {
          hop("commit_net", leader, e.recorder, l_commit, e.t);
        }
      }
      if (leader != kNoNode && l_ack >= 0) {
        // The leader's ACK event names the follower that completed the
        // quorum; the hop from that follower's fsync is the ACK network +
        // leader processing leg.
        for (const auto& e : tl.events) {
          if (e.stage == trace::Stage::kAck && e.recorder == leader) {
            const std::int64_t f_fsync =
                first_time(tl.events, trace::Stage::kLogFsync, e.subject);
            hop("ack_net", e.subject, leader, f_fsync, l_ack);
            break;
          }
        }
      }
      for (const NodeTrace& nt : traces_) {
        const std::int64_t c =
            first_time(tl.events, trace::Stage::kCommit, nt.recorder);
        const std::int64_t d =
            first_time(tl.events, trace::Stage::kDeliver, nt.recorder);
        hop("deliver", nt.recorder, nt.recorder, c, d);
      }
      hop("e2e_commit", leader, leader, l_prop, l_commit);
      // Client-facing legs exist only on the node that served the request
      // (the leader, for writes): wire ingress to proposal, and delivery to
      // the response hitting the socket.
      const std::int64_t l_recv =
          first_time(tl.events, trace::Stage::kClientRecv, leader);
      const std::int64_t l_deliver =
          first_time(tl.events, trace::Stage::kDeliver, leader);
      const std::int64_t l_reply =
          first_time(tl.events, trace::Stage::kClientReply, leader);
      hop("ingress", leader, leader, l_recv, l_prop);
      hop("reply_write", leader, leader, l_deliver, l_reply);
    }
    out.push_back(std::move(tl));
  }
  return out;
}

Status TraceCollector::dump_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::io_error("open " + path);
  for (const ZxidTimeline& tl : merge()) {
    std::string line = "{";
    line += json::key("zxid");
    line += "{" + json::key("epoch") +
            json::num(static_cast<std::uint64_t>(tl.zxid.epoch)) + "," +
            json::key("counter") +
            json::num(static_cast<std::uint64_t>(tl.zxid.counter)) + "},";
    line += json::key("events");
    line += "[";
    for (std::size_t i = 0; i < tl.events.size(); ++i) {
      const MergedEvent& e = tl.events[i];
      if (i != 0) line += ",";
      line += "{" + json::key("recorder") +
              json::num(static_cast<std::uint64_t>(e.recorder)) + "," +
              json::key("node") +
              json::num(static_cast<std::uint64_t>(e.subject)) + "," +
              json::key("stage") + json::str(trace::stage_name(e.stage)) +
              "," + json::key("t_ns") + json::num(e.t) + "}";
    }
    line += "],";
    line += json::key("hops");
    line += "[";
    for (std::size_t i = 0; i < tl.hops.size(); ++i) {
      const Hop& h = tl.hops[i];
      if (i != 0) line += ",";
      line += "{" + json::key("name") + json::str(h.name) + "," +
              json::key("from") +
              json::num(static_cast<std::uint64_t>(h.from)) + "," +
              json::key("to") + json::num(static_cast<std::uint64_t>(h.to)) +
              "," + json::key("ns") + json::num(h.ns) + "}";
    }
    line += "]}\n";
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      std::fclose(f);
      return Status::io_error("write " + path);
    }
  }
  if (std::fclose(f) != 0) return Status::io_error("close " + path);
  return Status::ok();
}

Result<TraceCollector> collect_traces_http(
    const std::vector<std::uint16_t>& admin_ports) {
  std::vector<trace::TraceSnapshot> rings;
  std::map<NodeId, std::int64_t> offsets;
  for (const std::uint16_t port : admin_ports) {
    auto status = net::http_get(port, "/status");
    auto tracez = net::http_get(port, "/tracez");
    if (!status.is_ok() || !tracez.is_ok()) continue;
    const std::string st = net::http_body(status.value());
    trace::TraceSnapshot ring;
    // Every /status body opens with the node's id.
    if (std::sscanf(st.c_str(), "{\"node\":{\"id\":%u,", &ring.recorder) !=
        1) {
      return Status::corruption("bad /status on port " + std::to_string(port));
    }
    auto events = pb::parse_admin_trace_jsonl(net::http_body(tracez.value()));
    if (!events.is_ok()) return events.status();
    ring.events = std::move(events).take();
    rings.push_back(std::move(ring));
    if (st.find("\"role\":\"LEADING\"") == std::string::npos) continue;
    auto metrics = net::http_get(port, "/metrics");
    if (!metrics.is_ok()) return metrics.status();
    std::istringstream lines(net::http_body(metrics.value()));
    for (std::string line; std::getline(lines, line);) {
      NodeId id = kNoNode;
      long long off = 0;
      if (std::sscanf(line.c_str(), "zab_follower_%u_clock_offset_ns %lld",
                      &id, &off) == 2) {
        offsets[id] = off;
      }
    }
  }
  if (rings.empty()) return Status::not_ready("no admin server answered");
  return TraceCollector::of_rings(rings, offsets);
}

}  // namespace zab::harness
