// zab_cli — command-line client for zab_server ensembles.
//
//   zab_cli --servers 8101,8102,8103 create <path> [data] [--seq]
//   zab_cli --servers ...            get <path>
//   zab_cli --servers ...            set <path> <data> [version]
//   zab_cli --servers ...            rm <path> [version]
//   zab_cli --servers ...            ls <path>
//   zab_cli --servers ...            stat <path>
//   zab_cli --servers ...            sync          (flush a barrier; prints
//                                      its commit zxid)
//
// Reads (get/ls/stat) accept --consistency local|session|linearizable
// (default session) and print the zxid they are consistent with.
//   zab_cli --servers ...            watch <path>  (block until it changes)
//   zab_cli --servers ...            leader      (which server leads?)
//   zab_cli --servers ...            config      (active replicated cluster
//                                      config of the contacted server)
//   zab_cli --servers ...            reconfig show
//   zab_cli --servers ...            reconfig add <id> <host:port> [--observer]
//   zab_cli --servers ...            reconfig remove <id>
//                                      (membership changes commit through the
//                                      broadcast pipeline; see PROTOCOL.md §16)
//
// Monitoring reads each server's admin plane (--admin-servers lists the
// servers' admin ports, NOT their client ports):
//   zab_cli --admin-servers 9101,... admin [target]  (GET each server's
//                                      target, default /status; e.g.
//                                      /metrics, "/slowlog?n=10", /readyz)
//   zab_cli --admin-servers ...      dump_trace <path>  (merge every
//                                      server's /tracez onto the leader's
//                                      clock as JSONL, one object per zxid)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness/trace_collector.h"
#include "net/admin_server.h"
#include "pb/remote_client.h"

using namespace zab;
using pb::RemoteClient;

namespace {

std::vector<pb::Endpoint> parse_servers(const std::string& csv) {
  std::vector<pb::Endpoint> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::string host = "127.0.0.1";
    if (const auto colon = tok.find(':'); colon != std::string::npos) {
      host = tok.substr(0, colon);
      tok = tok.substr(colon + 1);
    }
    out.push_back({host, static_cast<std::uint16_t>(
                             std::strtoul(tok.c_str(), nullptr, 10))});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  logging::set_default_level(LogLevel::kError);
  std::vector<pb::Endpoint> servers;
  std::vector<pb::Endpoint> admin_servers;
  std::vector<std::string> args;
  bool sequential = false;
  bool json = false;
  bool observer = false;
  pb::ReadConsistency consistency = pb::ReadConsistency::kSession;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--servers" && i + 1 < argc) {
      servers = parse_servers(argv[++i]);
    } else if (a == "--admin-servers" && i + 1 < argc) {
      admin_servers = parse_servers(argv[++i]);
    } else if (a == "--seq") {
      sequential = true;
    } else if (a == "--observer") {
      observer = true;
    } else if (a == "--consistency" && i + 1 < argc) {
      const std::string tier = argv[++i];
      if (tier == "local") {
        consistency = pb::ReadConsistency::kLocal;
      } else if (tier == "session") {
        consistency = pb::ReadConsistency::kSession;
      } else if (tier == "linearizable") {
        consistency = pb::ReadConsistency::kLinearizable;
      } else {
        std::fprintf(stderr,
                     "--consistency must be local|session|linearizable\n");
        return 2;
      }
    } else if (a == "--json") {
      json = true;
    } else {
      args.push_back(a);
    }
  }
  if (args.empty() || (servers.empty() && admin_servers.empty())) {
    std::fprintf(stderr,
                 "usage: %s --servers p1,p2,... "
                 "<create|get|set|rm|ls|stat|sync|leader|config|reconfig>"
                 " [args]\n"
                 "       %s --admin-servers p1,p2,... admin [/metrics|/readyz"
                 "|/status|/tracez|/slowlog]\n"
                 "       %s --admin-servers p1,p2,... dump_trace <path>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  if (args[0] == "dump_trace" && args.size() == 2) {
    // Merge every server's /tracez onto the leader's clock and write the
    // per-zxid timelines as JSONL.
    if (admin_servers.empty()) {
      std::fprintf(stderr, "dump_trace: need --admin-servers\n");
      return 2;
    }
    std::vector<std::uint16_t> ports;
    for (const auto& ep : admin_servers) ports.push_back(ep.port);
    auto tc = harness::collect_traces_http(ports);
    if (!tc.is_ok()) return fail(tc.status());
    if (Status st = tc.value().dump_jsonl(args[1]); !st.is_ok()) {
      return fail(st);
    }
    std::printf("wrote %zu events from %zu of %zu servers to %s\n",
                tc.value().events_added(), tc.value().rings_added(),
                ports.size(), args[1].c_str());
    std::fputs(tc.value().hop_metrics().to_text().c_str(), stdout);
    return 0;
  }
  if (args[0] == "admin") {
    // Talks HTTP to the admin plane — no client protocol, no sessions.
    if (admin_servers.empty()) {
      std::fprintf(stderr, "admin: need --admin-servers\n");
      return 2;
    }
    const std::string target = args.size() > 1 ? args[1] : "/status";
    int rc = 0;
    for (const auto& ep : admin_servers) {
      std::printf("--- %s:%u %s ---\n", ep.host.c_str(), ep.port,
                  target.c_str());
      auto r = net::http_get(ep.port, target);
      if (!r.is_ok()) {
        std::printf("unreachable: %s\n", r.status().to_string().c_str());
        rc = 1;
        continue;
      }
      std::fputs(net::http_body(r.value()).c_str(), stdout);
      std::fputc('\n', stdout);
    }
    return rc;
  }
  if (servers.empty()) {
    std::fprintf(stderr, "need --servers for command '%s'\n", args[0].c_str());
    return 2;
  }

  RemoteClient client(pb::ClientConfig{.servers = servers, .op_timeout = seconds(10)});
  const std::string& cmd = args[0];

  if (cmd == "create" && args.size() >= 2) {
    const Bytes data = args.size() > 2 ? to_bytes(args[2]) : Bytes{};
    auto r = client.create(args[1], data, sequential);
    if (!r.is_ok()) return fail(r.status());
    std::printf("created %s\n", r.value().c_str());
    return 0;
  }
  if (cmd == "get" && args.size() == 2) {
    auto r = client.get(args[1], pb::ReadOptions{.consistency = consistency});
    if (!r.is_ok()) return fail(r.status());
    std::printf("%s\t(at %s)\n", to_string_copy(r.value().value).c_str(),
                to_string(r.value().zxid).c_str());
    return 0;
  }
  if (cmd == "set" && args.size() >= 3) {
    const std::int64_t version =
        args.size() > 3 ? std::strtoll(args[3].c_str(), nullptr, 10) : -1;
    auto r = client.set(args[1], to_bytes(args[2]), version);
    if (!r.is_ok()) return fail(r.status());
    std::printf("ok at %s\n", to_string(r.value()).c_str());
    return 0;
  }
  if (cmd == "rm" && args.size() >= 2) {
    const std::int64_t version =
        args.size() > 2 ? std::strtoll(args[2].c_str(), nullptr, 10) : -1;
    auto r = client.remove(args[1], version);
    if (!r.is_ok()) return fail(r.status());
    std::printf("ok at %s\n", to_string(r.value()).c_str());
    return 0;
  }
  if (cmd == "ls" && args.size() == 2) {
    auto r = client.get_children(args[1],
                                 pb::ReadOptions{.consistency = consistency});
    if (!r.is_ok()) return fail(r.status());
    for (const auto& k : r.value().value) std::printf("%s\n", k.c_str());
    return 0;
  }
  if (cmd == "stat" && args.size() == 2) {
    auto r = client.stat(args[1], pb::ReadOptions{.consistency = consistency});
    if (!r.is_ok()) return fail(r.status());
    const auto& s = r.value().value;
    std::printf("czxid=%s mzxid=%s version=%u cversion=%u children=%u len=%llu"
                " (at %s)\n",
                to_string(s.czxid).c_str(), to_string(s.mzxid).c_str(),
                s.version, s.cversion, s.num_children,
                static_cast<unsigned long long>(s.data_length),
                to_string(r.value().zxid).c_str());
    return 0;
  }
  if (cmd == "sync" && args.size() == 1) {
    auto r = client.sync();
    if (!r.is_ok()) return fail(r.status());
    std::printf("synced at %s\n", to_string(r.value()).c_str());
    return 0;
  }
  if (cmd == "watch" && args.size() == 2) {
    // Register a data/exists watch and block until it fires.
    auto ex = client.exists(args[1], pb::ReadOptions{.watch = true});
    if (!ex.is_ok()) return fail(ex.status());
    std::printf("watching %s (currently %s) ...\n", args[1].c_str(),
                ex.value().value ? "exists" : "absent");
    auto ev = client.wait_watch_event(seconds(3600));
    if (!ev.is_ok()) return fail(ev.status());
    const char* what = "changed";
    switch (ev.value().event) {
      case pb::WatchEvent::kNodeCreated: what = "created"; break;
      case pb::WatchEvent::kNodeDeleted: what = "deleted"; break;
      case pb::WatchEvent::kChildrenChanged: what = "children changed"; break;
      case pb::WatchEvent::kDataChanged: what = "data changed"; break;
    }
    std::printf("%s %s\n", ev.value().path.c_str(), what);
    return 0;
  }
  if (cmd == "leader") {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      RemoteClient one(pb::ClientConfig{.servers = {servers[i]}, .op_timeout = seconds(2)});
      auto r = one.ping_is_leader();
      std::printf("%s:%u -> %s\n", servers[i].host.c_str(), servers[i].port,
                  !r.is_ok()        ? "unreachable"
                  : r.value()       ? "LEADER"
                                    : "follower");
    }
    return 0;
  }

  if (cmd == "config" || (cmd == "reconfig" && args.size() >= 2 &&
                          args[1] == "show")) {
    // Active replicated cluster config of whichever server answers. The
    // endpoint list is NOT rewritten here: an operator asking "what does
    // this server think the ensemble is" wants that server's answer.
    auto r = client.config(/*refresh_endpoints=*/false);
    if (!r.is_ok()) return fail(r.status());
    if (json) {
      std::printf("%s\n", r.value().json.c_str());
      return 0;
    }
    std::printf("config_zxid=%s\n", to_string(r.value().config_zxid).c_str());
    for (const auto& m : r.value().members) {
      std::printf("  %u\t%s\t%s\n", m.id, m.voter ? "voter" : "observer",
                  m.addr.empty() ? "-" : m.addr.c_str());
    }
    return 0;
  }
  if (cmd == "reconfig" && args.size() >= 2) {
    const std::string& sub = args[1];
    if (sub == "add" && args.size() == 4) {
      const NodeId id = static_cast<NodeId>(
          std::strtoul(args[2].c_str(), nullptr, 10));
      auto r = client.reconfig_add(id, args[3], observer);
      if (!r.is_ok()) return fail(r.status());
      std::printf("added %u as %s; config active at %s\n", id,
                  observer ? "observer" : "voter",
                  to_string(r.value()).c_str());
      return 0;
    }
    if (sub == "remove" && args.size() == 3) {
      const NodeId id = static_cast<NodeId>(
          std::strtoul(args[2].c_str(), nullptr, 10));
      auto r = client.reconfig_remove(id);
      if (!r.is_ok()) return fail(r.status());
      std::printf("removed %u; config active at %s\n", id,
                  to_string(r.value()).c_str());
      return 0;
    }
    std::fprintf(stderr,
                 "usage: reconfig show | reconfig add <id> <host:port> "
                 "[--observer] | reconfig remove <id>\n");
    return 2;
  }

  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
