// zab_server — one replica as a standalone process.
//
// Run a 3-node ensemble in three terminals:
//   ./zab_server --id 1 --peers 7101,7102,7103 --client-port 8101 --data /tmp/zab/1
//   ./zab_server --id 2 --peers 7101,7102,7103 --client-port 8102 --data /tmp/zab/2
//   ./zab_server --id 3 --peers 7101,7102,7103 --client-port 8103 --data /tmp/zab/3
// then talk to it:
//   ./zab_cli --servers 8101,8102,8103 create /hello world
//   ./zab_cli --servers 8101,8102,8103 get /hello
//
// --peers lists the ensemble's inter-server ports in node-id order (all on
// 127.0.0.1 in this demo binary); --observers marks trailing ids as
// non-voting. Transaction logs, snapshots, and epoch metadata live under
// --data and survive restarts.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/op_span.h"
#include "net/admin_server.h"
#include "net/runtime_env.h"
#include "net/tcp_transport.h"
#include "pb/admin_status.h"
#include "pb/client_service.h"
#include "pb/replicated_tree.h"
#include "storage/file_storage.h"
#include "zab/zab_node.h"

using namespace zab;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

std::vector<std::uint16_t> parse_ports(const std::string& csv) {
  std::vector<std::uint16_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    const std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    out.push_back(static_cast<std::uint16_t>(std::strtoul(tok.c_str(), nullptr, 10)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --id N --peers p1,p2,... [--observers K] "
               "--client-port P --data DIR [--fsync] [--group-commit]\n"
               "       [--admin-port P] [--crash-dump FILE] [-v]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  NodeId id = kNoNode;
  std::vector<std::uint16_t> peer_ports;
  std::size_t n_observers = 0;
  std::uint16_t client_port = 0;
  std::uint16_t admin_port = 0;
  bool with_admin = false;
  std::string crash_dump;
  std::string data_dir;
  bool fsync = false;
  bool group_commit = false;
  // kInfo unless ZAB_LOG_LEVEL overrides (see README: observability).
  logging::set_default_level(LogLevel::kInfo);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--id") {
      id = static_cast<NodeId>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--peers") {
      peer_ports = parse_ports(next());
    } else if (arg == "--observers") {
      n_observers = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--client-port") {
      client_port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--admin-port") {
      admin_port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
      with_admin = true;
    } else if (arg == "--crash-dump") {
      crash_dump = next();
    } else if (arg == "--data") {
      data_dir = next();
    } else if (arg == "--fsync") {
      fsync = true;
    } else if (arg == "--group-commit") {
      group_commit = true;
    } else if (arg == "-v") {
      logging::set_level(LogLevel::kDebug);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (id == kNoNode || peer_ports.empty() || id > peer_ports.size() ||
      data_dir.empty()) {
    usage(argv[0]);
    return 2;
  }

  // --- Assemble the replica ------------------------------------------------
  // One registry per process, shared by transport, storage and node; the
  // admin plane's /metrics serves it (see docs/PROTOCOL.md, Observability).
  MetricsRegistry metrics;
  build_info::register_server_gauges(metrics);

  net::TcpConfig tc;
  tc.id = id;
  tc.metrics = &metrics;
  for (std::size_t i = 0; i < peer_ports.size(); ++i) {
    tc.ports[static_cast<NodeId>(i + 1)] = peer_ports[i];
  }
  auto transport_res = net::TcpTransport::create(tc);
  if (!transport_res.is_ok()) {
    std::fprintf(stderr, "transport: %s\n",
                 transport_res.status().to_string().c_str());
    return 1;
  }
  auto transport = std::move(transport_res).take();

  storage::FileStorageOptions so;
  so.dir = data_dir;
  so.fsync = fsync;
  if (group_commit) {
    so.sync_mode = storage::FileStorageOptions::SyncMode::kGroupCommit;
  }
  so.metrics = &metrics;
  auto storage_res = storage::FileStorage::open(so);
  if (!storage_res.is_ok()) {
    std::fprintf(stderr, "storage: %s\n",
                 storage_res.status().to_string().c_str());
    return 1;
  }
  auto storage = std::move(storage_res).take();

  net::RuntimeEnv env(id, 0x5eed + id, *transport);
  // Group-commit durability callbacks must run on the protocol loop.
  storage->set_completion_poster(
      [&env](std::function<void()> fn) { env.post(std::move(fn)); });

  ZabConfig zc;
  zc.id = id;
  const std::size_t voting = peer_ports.size() - n_observers;
  for (std::size_t i = 0; i < voting; ++i) {
    zc.peers.push_back(static_cast<NodeId>(i + 1));
  }
  for (std::size_t i = voting; i < peer_ports.size(); ++i) {
    zc.observers.push_back(static_cast<NodeId>(i + 1));
  }
  zc.snapshot_every = 10000;
  zc.log_retain = 20000;

  std::unique_ptr<ZabNode> node;
  std::unique_ptr<pb::ReplicatedTree> tree;
  env.start([&] {
    node = std::make_unique<ZabNode>(zc, env, *storage, &metrics);
    tree = std::make_unique<pb::ReplicatedTree>(*node);
    node->add_state_handler([&](Role r, Epoch e) {
      std::printf("[node %u] %s epoch=%u\n", id, role_name(r), e);
    });
    transport->set_handler([&](NodeId from, Bytes payload) {
      env.post([&, from, payload = std::move(payload)] {
        if (node) node->on_message(from, payload);
      });
    });
    node->start();
  });
  env.run_sync([] {});  // barrier: node + tree constructed

  auto teardown = [&](net::AdminServer* admin) {
    // Orderly teardown: the loop thread and transport are already live and
    // hold references to node/tree; returning without stopping them races
    // their destructors against in-flight callbacks.
    if (admin) admin->stop();
    env.run_sync([&] {
      if (node) node->shutdown();
    });
    transport->shutdown();
    env.stop();
  };

  pb::ClientService service(env, *tree);
  if (Status st = service.start("127.0.0.1", client_port); !st.is_ok()) {
    std::fprintf(stderr, "client service: %s\n", st.to_string().c_str());
    teardown(nullptr);
    return 1;
  }

  // Out-of-band admin plane: own port, own IO thread, read-only.
  std::unique_ptr<net::AdminServer> admin;
  if (with_admin) {
    net::AdminConfig ac;
    ac.port = admin_port;
    admin = std::make_unique<net::AdminServer>(
        ac, pb::make_admin_collector(env, *node, tree.get(), *storage));
    if (Status st = admin->start(); !st.is_ok()) {
      std::fprintf(stderr, "admin server: %s\n", st.to_string().c_str());
      service.stop();
      teardown(nullptr);
      return 1;
    }
    std::printf("zab_server: node %u admin plane on %u "
                "(/metrics /healthz /readyz /status /tracez)\n",
                id, admin->port());
  }

  std::printf("zab_server: node %u up — peers on ports [", id);
  for (std::size_t i = 0; i < peer_ports.size(); ++i) {
    std::printf("%s%u", i ? "," : "", peer_ports[i]);
  }
  std::printf("], clients on %u, data in %s%s%s\n", service.port(),
              data_dir.c_str(), fsync ? " (fsync)" : "",
              group_commit ? " (group-commit)" : "");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Flight recorder last: its SIGTERM handler dumps a post-mortem bundle,
  // then chains to on_signal (installed above), preserving graceful
  // shutdown. Fatal signals dump and re-raise.
  FlightRecorder recorder;
  if (!crash_dump.empty()) {
    recorder.set_path(crash_dump);
    const int slot = recorder.register_slot();
    env.run_sync([&] {
      node->set_postmortem_sink(
          [&recorder, slot](const std::string& bundle, bool stalled) {
            recorder.publish(slot, bundle);
            if (stalled) recorder.dump_now("stall");
          });
    });
    recorder.install();
    std::printf("zab_server: node %u post-mortem dumps to %s\n", id,
                crash_dump.c_str());
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("\nzab_server: shutting down node %u\n", id);
  recorder.uninstall();
  if (admin) admin->stop();
  service.stop();
  std::string final_report;
  env.run_sync([&] {
    if (node) {
      final_report = node->metrics().to_text();
      final_report += op_p99_decomposition(node->metrics().snapshot());
      node->shutdown();
    }
  });
  std::printf("--- final stats ---\n%s", final_report.c_str());
  transport->shutdown();
  env.stop();
  return 0;
}
