#include "pb/admin_status.h"

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
  out += json::key("snapshot_bytes") + json::num(si.snapshot_bytes);
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

std::string admin_trace_jsonl(ZabNode& node) {
  std::string out;
  for (const trace::Event& e : node.trace().snapshot()) {
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

net::AdminSnapshot collect_admin_snapshot(ZabNode& node, ReplicatedTree* tree,
                                          storage::ZabStorage& storage) {
  build_info::refresh_uptime(node.metrics());
  net::AdminSnapshot snap;
  snap.prometheus = node.metrics().to_prometheus();
  snap.status_json = admin_status_json(node, tree, storage);
  snap.trace_jsonl = admin_trace_jsonl(node);
  snap.slowlog_jsonl = node.slowlog_jsonl();
  snap.config_json = cluster_config_json(node.cluster_config());
  const ZabNode::Readiness r = node.readiness();
  snap.ready = r.ready;
  snap.not_ready_reason = r.reason;
  return snap;
}

net::AdminServer::Collector make_admin_collector(net::RuntimeEnv& env,
                                                 ZabNode& node,
                                                 ReplicatedTree* tree,
                                                 storage::ZabStorage& storage) {
  return [&env, &node, tree, &storage](
             std::function<void(net::AdminSnapshot)> done) {
    env.post([&node, tree, &storage, done = std::move(done)] {
      done(collect_admin_snapshot(node, tree, storage));
    });
  };
}

}  // namespace zab::pb
