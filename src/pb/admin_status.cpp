#include "pb/admin_status.h"

#include <algorithm>
#include <charconv>

#include "common/build_info.h"
#include "common/json.h"
#include "common/trace.h"
#include "pb/replicated_tree.h"

namespace zab::pb {

std::string cluster_config_json(const ClusterConfig& c) {
  std::string out = "{";
  out += json::key("version") + json::num(c.version) + ',';
  out += json::key("config_zxid") + json::str(to_string(c.config_zxid)) + ',';
  out += json::key("config_zxid_packed") + json::num(c.config_zxid.packed()) +
         ',';
  out += json::key("quorum_size") +
         json::num(std::uint64_t{c.quorum_size()}) + ',';
  auto id_list = [](const std::vector<NodeId>& ids) {
    std::string s = "[";
    bool first = true;
    for (const NodeId n : ids) {
      if (!first) s += ',';
      first = false;
      s += json::num(std::uint64_t{n});
    }
    s += ']';
    return s;
  };
  out += json::key("voters") + id_list(c.voters) + ',';
  out += json::key("observers") + id_list(c.observers) + ',';
  out += json::key("addrs");
  out += '{';
  bool first = true;
  for (const auto& [nid, addr] : c.addrs) {
    if (!first) out += ',';
    first = false;
    out += json::key(std::to_string(nid)) + json::str(addr);
  }
  out += "}}";
  return out;
}

std::string admin_status_json(ZabNode& node, ReplicatedTree* tree,
                              storage::ZabStorage& storage) {
  const ZabNode::Readiness r = node.readiness();
  const storage::ZabStorage::StorageInfo si = storage.info();

  std::string out = "{";
  out += json::key("node");
  out += '{';
  out += json::key("id") + json::num(std::uint64_t{node.id()}) + ',';
  out += json::key("role") + json::str(role_name(node.role())) + ',';
  out += json::key("phase") + json::str(phase_name(node.phase())) + ',';
  out += json::key("leader") + json::num(std::uint64_t{node.leader()}) + ',';
  out += json::key("epoch") + json::num(std::uint64_t{node.epoch()}) + ',';
  out += json::key("last_logged") +
         json::str(to_string(node.last_logged())) + ',';
  out += json::key("last_committed") +
         json::str(to_string(node.last_committed())) + ',';
  out += json::key("last_delivered") +
         json::str(to_string(node.last_delivered())) + ',';
  out += json::key("last_committed_packed") +
         json::num(node.last_committed().packed());
  out += "},";

  out += json::key("ready");
  out += r.ready ? "true," : "false,";
  out += json::key("not_ready_reason") + json::str(r.reason) + ',';

  out += json::key("peers");
  out += '[';
  bool first = true;
  for (const NodeId p : node.config().all_members()) {
    if (!first) out += ',';
    first = false;
    out += json::num(std::uint64_t{p});
  }
  out += "],";

  out += json::key("ensemble") + cluster_config_json(node.cluster_config()) +
         ',';

  out += json::key("sessions") +
         json::num(std::uint64_t{tree ? tree->active_sessions() : 0}) + ',';

  out += json::key("storage");
  out += '{';
  out += json::key("log_entries") + json::num(si.log_entries) + ',';
  out += json::key("log_bytes") + json::num(si.log_bytes) + ',';
  out += json::key("segments") + json::num(si.segments) + ',';
  out += json::key("snapshot_zxid") +
         json::str(to_string(Zxid::from_packed(si.snapshot_zxid))) + ',';
  out += json::key("snapshot_bytes") + json::num(si.snapshot_bytes) + ',';
  out += json::key("mirror_bytes") + json::num(si.mirror_bytes);
  out += "},";

  // The settings this node runs with: its ZabConfig and its log's forcing.
  const ZabConfig& zc = node.config();
  auto ms = [](Duration d) { return json::num(d / kMillisecond); };
  out += json::key("config");
  out += '{';
  out += json::key("heartbeat_interval_ms") + ms(zc.heartbeat_interval) + ',';
  out += json::key("follower_timeout_ms") + ms(zc.follower_timeout) + ',';
  out += json::key("leader_quorum_timeout_ms") +
         ms(zc.leader_quorum_timeout) + ',';
  out += json::key("max_outstanding") +
         json::num(std::uint64_t{zc.max_outstanding}) + ',';
  out += json::key("snapshot_every") +
         json::num(std::uint64_t{zc.snapshot_every}) + ',';
  out += json::key("log_retain") + json::num(std::uint64_t{zc.log_retain}) +
         ',';
  out += json::key("fsync") + (si.fsync ? "true," : "false,");
  out += json::key("group_commit") + (si.group_commit ? "true" : "false");
  out += "},";

  out += json::key("build") + build_info::to_json() + ',';

  // Phase durations (satellites of the request-attribution plane): how long
  // the last election took and how long the node needed to resync after it,
  // plus the slow-op ring's headline numbers.
  auto& m = node.metrics();
  out += json::key("election");
  out += '{';
  out += json::key("last_ns") + json::num(m.gauge("zab.election.last_ns").value()) + ',';
  out += json::key("rounds") +
         json::num(m.counter("zab.election.rounds").value());
  out += "},";
  out += json::key("recovery");
  out += '{';
  out += json::key("last_sync_ns") +
         json::num(m.gauge("zab.recovery.last_sync_ns").value());
  out += "},";
  out += json::key("slowlog");
  out += '{';
  out += json::key("count") + json::num(m.gauge("zab.slowlog.count").value()) + ',';
  out += json::key("threshold_us") +
         json::num(m.gauge("zab.slowlog.threshold_us").value());
  out += "},";

  out += json::key("uptime_s") +
         json::num(node.metrics().gauge("zab.server.uptime_s").value());
  out += '}';
  return out;
}

std::string admin_trace_jsonl(ZabNode& node, const std::string& query) {
  const std::string zxid = net::query_param(query, "zxid");
  const std::string want =
      zxid.empty() ? net::query_param(query, "epoch") : zxid;
  std::uint64_t v = 0;
  const auto r = std::from_chars(want.data(), want.data() + want.size(), v);
  const bool bad = r.ec != std::errc() || r.ptr != want.data() + want.size();
  std::string out;
  for (const trace::Event& e : node.trace().snapshot()) {
    if (!want.empty() &&
        (bad || (zxid.empty() ? e.epoch : e.zxid.packed()) != v)) {
      continue;
    }
    out += '{';
    out += json::key("zxid") + json::str(to_string(e.zxid)) + ',';
    // Keep "packed" and "epoch" non-terminal: /tracez matches the
    // `"packed":N,` and `"epoch":E,` forms.
    out += json::key("packed") + json::num(e.zxid.packed()) + ',';
    out += json::key("epoch") + json::num(std::uint64_t{e.epoch}) + ',';
    out += json::key("stage") + json::str(trace::stage_name(e.stage)) + ',';
    out += json::key("node") + json::num(std::uint64_t{e.node}) + ',';
    out += json::key("t_ns") + json::num(std::int64_t{e.t});
    out += "}\n";
  }
  return out;
}

Result<std::vector<trace::Event>> parse_admin_trace_jsonl(
    std::string_view jsonl) {
  std::vector<trace::Event> out;
  while (!jsonl.empty()) {
    const std::string_view line = jsonl.substr(0, jsonl.find('\n'));
    jsonl.remove_prefix(std::min(jsonl.size(), line.size() + 1));
    // A value runs to the next ',' or '}' (none of the values read holds
    // either), unquoted; empty when the key is absent.
    auto field = [&line](std::string_view key) {
      const std::size_t at = line.find("\"" + std::string(key) + "\":");
      if (at == std::string_view::npos) return std::string_view();
      std::string_view v = line.substr(at + key.size() + 3);
      v = v.substr(0, v.find_first_of(",}"));
      if (v.size() > 1 && v.front() == '"' && v.back() == '"') {
        v = v.substr(1, v.size() - 2);
      }
      return v;
    };
    auto num = [&field](std::string_view key, auto* dst) {
      const std::string_view v = field(key);
      const auto r = std::from_chars(v.data(), v.data() + v.size(), *dst);
      return r.ec == std::errc() && r.ptr == v.data() + v.size();
    };
    const auto stage = trace::stage_from_name(field("stage"));
    std::uint64_t packed = 0;
    trace::Event e;
    if (line.empty() || line.back() != '}' || !stage ||
        !num("packed", &packed) || !num("epoch", &e.epoch) ||
        !num("node", &e.node) || !num("t_ns", &e.t)) {
      return Status::corruption("bad /tracez line: " + std::string(line));
    }
    e.zxid = Zxid::from_packed(packed);
    e.stage = *stage;
    out.push_back(e);
  }
  return out;
}

net::AdminSnapshot collect_admin_snapshot(ZabNode& node, ReplicatedTree* tree,
                                          storage::ZabStorage& storage,
                                          const std::string& target,
                                          const std::string& query) {
  build_info::refresh_uptime(node.metrics());
  net::AdminSnapshot snap;
  const ZabNode::Readiness r = node.readiness();
  snap.ready = r.ready;
  snap.not_ready_reason = r.reason;
  if (target == "/metrics") {
    snap.prometheus = node.metrics().to_prometheus();
  } else if (target == "/status") {
    snap.status_json = admin_status_json(node, tree, storage);
  } else if (target == "/tracez") {
    snap.trace_jsonl = admin_trace_jsonl(node, query);
  } else if (target == "/slowlog") {
    snap.slowlog_jsonl = node.slow_log().to_jsonl();
  } else if (target == "/config") {
    snap.config_json = cluster_config_json(node.cluster_config());
  }
  return snap;
}

net::AdminServer::Collector make_admin_collector(net::RuntimeEnv& env,
                                                 ZabNode& node,
                                                 ReplicatedTree* tree,
                                                 storage::ZabStorage& storage) {
  return [&env, &node, tree, &storage](
             const net::HttpRequest& req,
             std::function<void(net::AdminSnapshot)> done) {
    env.post([&node, tree, &storage, req, done = std::move(done)] {
      done(collect_admin_snapshot(node, tree, storage, req.target, req.query));
    });
  };
}

}  // namespace zab::pb
