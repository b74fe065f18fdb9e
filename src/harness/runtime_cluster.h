// A Zab ensemble on real threads (one event loop per node) over loopback
// TCP, with in-memory or file-backed storage. Every server is built by one
// recipe, whether start(), add_server() or restart() boots it. Used by the
// threaded examples, tests and benches; the simulator (SimCluster) remains
// the tool for protocol experiments.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "harness/trace_collector.h"
#include "net/admin_server.h"
#include "net/runtime_env.h"
#include "net/tcp_transport.h"
#include "pb/client_service.h"
#include "pb/replicated_tree.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "zab/zab_node.h"

namespace zab::harness {

struct RuntimeClusterConfig {
  std::size_t n = 3;
  /// Unused: peers always talk TCP. Callers that still set it keep
  /// building.
  bool use_tcp = false;
  /// TCP base port; node i listens on base_port + i. 0 picks ephemeral
  /// ports (recommended for tests).
  std::uint16_t base_port = 0;
  /// Non-empty: file-backed storage under <dir>/node<i> (fsync disabled for
  /// loopback speed; enable in cfg below for durability experiments).
  std::string storage_dir;
  bool fsync = false;
  /// File-backed storage only: run the async group-commit durability
  /// pipeline (FileStorage kGroupCommit) instead of the synchronous
  /// per-append force. The completion poster is wired to each node's loop,
  /// so durability callbacks keep running on the protocol thread.
  bool group_commit = false;
  /// Also expose each replica to external clients on an ephemeral TCP port
  /// (see client_port()).
  bool with_client_service = false;
  /// Also run the out-of-band admin HTTP plane per node on an ephemeral
  /// port (see admin_port(), admin_get()). Independent of
  /// with_client_service.
  bool with_admin = false;
  /// Non-empty: wire every node's post-mortem bundle into one shared
  /// FlightRecorder dumping to this file, and install its signal handlers.
  std::string crash_dump_path;
  ZabConfig node;
  std::uint64_t seed = 42;
};

class RuntimeCluster {
 public:
  explicit RuntimeCluster(RuntimeClusterConfig cfg);
  ~RuntimeCluster();
  RuntimeCluster(const RuntimeCluster&) = delete;
  RuntimeCluster& operator=(const RuntimeCluster&) = delete;

  Status start();
  void stop();

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Wait (real time) until some live node leads; kNoNode on timeout.
  NodeId wait_for_leader(Duration max_wait = seconds(10));

  /// Thread-safe accessors: run `fn` on the node's loop thread.
  void with_node(NodeId id, const std::function<void(ZabNode&)>& fn);
  void with_tree(NodeId id, const std::function<void(pb::ReplicatedTree&)>& fn);

  /// Client-service port of a node (with_client_service only).
  [[nodiscard]] std::uint16_t client_port(NodeId id) const {
    return slots_.at(id - 1)->client ? slots_.at(id - 1)->client->port() : 0;
  }

  /// Admin-plane port of a node (with_admin only).
  [[nodiscard]] std::uint16_t admin_port(NodeId id) const {
    return slots_.at(id - 1)->admin ? slots_.at(id - 1)->admin->port() : 0;
  }

  /// Blocking HTTP GET against one node's admin plane (with_admin only).
  [[nodiscard]] Result<std::string> admin_get(NodeId id,
                                              const std::string& target) {
    return net::http_get(admin_port(id), target);
  }

  /// Shared post-mortem recorder (crash_dump_path only; otherwise inert).
  [[nodiscard]] FlightRecorder& flight_recorder() { return recorder_; }

  /// Thread-safe snapshot of (role, last_delivered) per node.
  struct NodeView {
    Role role;
    Epoch epoch;
    Zxid last_delivered;
    bool active_leader;
  };
  [[nodiscard]] NodeView view(NodeId id);

  /// Thread-safe snapshot of a node's full metrics registry.
  [[nodiscard]] MetricsSnapshot metrics_snapshot(NodeId id);

  /// Thread-safe copy of one node's trace ring.
  [[nodiscard]] trace::TraceSnapshot trace_snapshot(NodeId id);

  /// Pull every node's trace ring, apply the leader's clock-offset
  /// estimates, and return the merged collector (call merge()/dump_jsonl()
  /// on it). With no active leader, offsets default to 0 — fine in one
  /// process, where all nodes share one monotonic clock. Crashed nodes are
  /// skipped.
  [[nodiscard]] TraceCollector collect_traces();

  /// collect_traces() + JSONL dump to `path` (one object per zxid).
  Status dump_trace(const std::string& path);

  /// Drop all inbound protocol messages to a node (simulated crash: it
  /// stops hearing PINGs and stops ponging, so the leader sees it dead).
  /// Reversible with unmute_node — the follower then resyncs.
  void mute_node(NodeId id);
  void unmute_node(NodeId id);

  /// Tear down one node's client service: kills its client connections and
  /// stops accepting new ones. Combined with mute_node this simulates a
  /// full server crash from a client's point of view — connected clients
  /// must rotate to another replica and re-attach their sessions.
  void stop_client_service(NodeId id);

  /// Boot one additional server mid-run as a non-voting learner (its seed
  /// config lists it as an observer of the existing ensemble, so it finds
  /// the leader, syncs, and serves — promotion to voter happens through the
  /// replicated reconfig pipeline, not here). Ids must stay contiguous:
  /// the new id is size() + 1. It binds its listener first, then every
  /// live server learns its port. Call `reconfig add` (via client or tree)
  /// separately to make it a voter.
  Status add_server(NodeId id);

  /// Stop and destroy one server's slot (admin plane, client service, node,
  /// transport, loop, storage handle). The protocol-level removal —
  /// committing the config without it — is the caller's job and should
  /// normally happen FIRST, so the remaining ensemble does not wait on a
  /// dead member. The slot becomes a tombstone: per-node accessors for this
  /// id are invalid afterwards.
  void remove_server(NodeId id);

  /// Crash one server: the teardown of remove_server(), after which
  /// restart() can boot it again from its storage directory. Per-node
  /// accessors for a crashed id are invalid until then. File-backed
  /// clusters only (kInvalidArgument otherwise): a voter that restarts
  /// empty has forgotten the txns it acked, which is outside Zab's
  /// crash-recovery model.
  Status crash(NodeId id);

  /// Boot a crashed server again: same seed config, its storage reopened
  /// from the same directory, a new listener whose port every live server
  /// learns.
  Status restart(NodeId id);

 private:
  struct Slot {
    NodeId id = kNoNode;
    // Created before transport/storage/node so all three can share it.
    std::unique_ptr<MetricsRegistry> metrics;
    std::unique_ptr<net::TcpTransport> transport;
    std::unique_ptr<net::RuntimeEnv> env;
    std::unique_ptr<storage::ZabStorage> storage;
    storage::FileStorage* file_storage = nullptr;  // non-null iff file-backed
    std::unique_ptr<ZabNode> node;
    std::unique_ptr<pb::ReplicatedTree> tree;
    std::unique_ptr<pb::ClientService> client;
    std::unique_ptr<net::AdminServer> admin;
    int recorder_slot = -1;  // FlightRecorder slot (crash_dump_path only)
    // Checked on the transport's delivery path; muted inbound messages are
    // dropped before reaching the loop (see mute_node).
    std::atomic<bool> muted{false};
  };

  /// Build server `id` up to its bound listener, its storage and its
  /// (idle) loop, in slot id - 1. Its loop starts once every transport
  /// knows the new port: a node that sends to a peer whose port it does not
  /// know yet waits out the transport's redial backoff.
  Status make_slot(NodeId id);
  /// Start a built slot's loop, which constructs and starts node and tree.
  void start_loop(Slot& s);
  /// Then the client service and admin plane the config asks for.
  Status start_services(Slot& s);
  /// make_slot, publish the port, start_loop, start_services: one server
  /// mid-run.
  Status boot(NodeId id);
  /// Stop and destroy one slot, leaving a null entry.
  void teardown(std::unique_ptr<Slot>& s);

  RuntimeClusterConfig cfg_;
  std::vector<std::unique_ptr<Slot>> slots_;  // null: removed or crashed
  std::map<NodeId, std::uint16_t> ports_;     // every listener ever bound
  FlightRecorder recorder_;
  bool started_ = false;
};

}  // namespace zab::harness
