#include "harness/runtime_cluster.h"

#include <chrono>
#include <thread>

#include "pb/admin_status.h"

namespace zab::harness {

RuntimeCluster::RuntimeCluster(RuntimeClusterConfig cfg)
    : cfg_(std::move(cfg)) {}

RuntimeCluster::~RuntimeCluster() { stop(); }

Status RuntimeCluster::start() {
  if (started_) return Status::ok();
  started_ = true;  // stop() tears down whatever a failed start() built
  if (!cfg_.crash_dump_path.empty()) recorder_.set_path(cfg_.crash_dump_path);
  for (std::size_t i = 1; i <= cfg_.n; ++i) {
    ZAB_RETURN_IF_ERROR(make_slot(static_cast<NodeId>(i)));
  }
  for (auto& s : slots_) s->transport->set_peer_ports(ports_);
  for (auto& s : slots_) start_loop(*s);
  for (auto& s : slots_) ZAB_RETURN_IF_ERROR(start_services(*s));
  if (!cfg_.crash_dump_path.empty()) recorder_.install();
  return Status::ok();
}

Status RuntimeCluster::make_slot(NodeId id) {
  auto slot = std::make_unique<Slot>();
  slot->id = id;
  // One registry per node, shared by its transport, storage and ZabNode.
  slot->metrics = std::make_unique<MetricsRegistry>();

  net::TcpConfig tc;
  tc.id = id;
  tc.metrics = slot->metrics.get();
  tc.ports[id] = cfg_.base_port == 0
                     ? 0
                     : static_cast<std::uint16_t>(cfg_.base_port + id);
  auto t = net::TcpTransport::create(tc);
  if (!t.is_ok()) return t.status();
  slot->transport = std::move(t).take();
  ports_[id] = slot->transport->listen_port();

  if (!cfg_.storage_dir.empty()) {
    storage::FileStorageOptions opts;
    opts.dir = cfg_.storage_dir + "/node" + std::to_string(id);
    opts.fsync = cfg_.fsync;
    if (cfg_.group_commit) {
      opts.sync_mode = storage::FileStorageOptions::SyncMode::kGroupCommit;
    }
    opts.metrics = slot->metrics.get();
    auto fs = storage::FileStorage::open(opts);
    if (!fs.is_ok()) return fs.status();
    slot->file_storage = fs.value().get();
    slot->storage = std::move(fs).take();
  } else {
    slot->storage = std::make_unique<storage::MemStorage>();
  }

  slot->env = std::make_unique<net::RuntimeEnv>(id, cfg_.seed + id,
                                                *slot->transport);
  if (slot->file_storage) {
    // Group-commit completions must run on the node's loop thread; in
    // kSync mode the poster is simply never invoked.
    net::RuntimeEnv* env = slot->env.get();
    slot->file_storage->set_completion_poster(
        [env](std::function<void()> fn) { env->post(std::move(fn)); });
  }
  if (!cfg_.crash_dump_path.empty()) {
    // A restarted server takes a fresh slot: the crashed one keeps its
    // last bundle for the post-mortem.
    slot->recorder_slot = recorder_.register_slot();
  }
  if (slots_.size() < id) slots_.resize(id);
  slots_[id - 1] = std::move(slot);
  return Status::ok();
}

void RuntimeCluster::start_loop(Slot& s) {
  Slot* slot = &s;
  slot->env->start([this, slot] {
    ZabConfig nc = cfg_.node;
    nc.id = slot->id;
    // Seed config: the original ensemble votes. A server added mid-run
    // boots as a learner: it observes, so it locates the leader and
    // DIFF/SNAP-syncs without voting or counting toward any quorum. The
    // committed reconfig txn — not this seed — is what makes it a voter.
    nc.peers.clear();
    for (std::size_t i = 1; i <= cfg_.n; ++i) {
      nc.peers.push_back(static_cast<NodeId>(i));
    }
    if (slot->id > cfg_.n) nc.observers = {slot->id};
    slot->node = std::make_unique<ZabNode>(nc, *slot->env, *slot->storage,
                                           slot->metrics.get());
    slot->tree = std::make_unique<pb::ReplicatedTree>(*slot->node);
    slot->transport->set_handler([slot](NodeId from, Bytes payload) {
      if (slot->muted.load(std::memory_order_relaxed)) return;
      slot->env->post([slot, from, payload = std::move(payload)] {
        if (slot->node) slot->node->on_message(from, payload);
      });
    });
    if (slot->recorder_slot >= 0) {
      // The sink runs on the node's loop at watchdog cadence; a NEW stall
      // also forces an immediate dump — the exact moment the pipeline
      // wedged, not 50 ms of drift later.
      slot->node->set_postmortem_sink(
          [this, slot](const std::string& bundle, bool stalled) {
            recorder_.publish(slot->recorder_slot, bundle);
            if (stalled) recorder_.dump_now("stall");
          });
    }
    slot->node->start();
  });
}

Status RuntimeCluster::start_services(Slot& s) {
  Slot* slot = &s;
  // The node and tree are constructed on the loop: sync before use.
  slot->env->run_sync([] {});
  if (cfg_.with_client_service) {
    slot->client = std::make_unique<pb::ClientService>(*slot->env, *slot->tree);
    ZAB_RETURN_IF_ERROR(slot->client->start("127.0.0.1", 0));
  }
  if (cfg_.with_admin) {
    slot->admin = std::make_unique<net::AdminServer>(
        net::AdminConfig{},
        pb::make_admin_collector(*slot->env, *slot->node, slot->tree.get(),
                                 *slot->storage));
    ZAB_RETURN_IF_ERROR(slot->admin->start());
  }
  return Status::ok();
}

Status RuntimeCluster::boot(NodeId id) {
  ZAB_RETURN_IF_ERROR(make_slot(id));
  for (auto& s : slots_) {
    if (s) s->transport->set_peer_ports(ports_);
  }
  start_loop(*slots_[id - 1]);
  return start_services(*slots_[id - 1]);
}

void RuntimeCluster::teardown(std::unique_ptr<Slot>& s) {
  // Admin first: its collector posts onto the loop stopped below.
  if (s->admin) s->admin->stop();
  if (s->client) s->client->stop();
  s->env->run_sync([&s] {
    if (s->node) s->node->shutdown();
  });
  s->transport->shutdown();
  s->env->stop();
  s.reset();  // tombstone: ids of surviving slots stay stable
}

void RuntimeCluster::stop() {
  if (!started_) return;
  recorder_.uninstall();
  for (auto& s : slots_) {
    if (s) teardown(s);
  }
  slots_.clear();
  ports_.clear();
  started_ = false;
}

Status RuntimeCluster::add_server(NodeId id) {
  if (!started_) return Status::not_ready("cluster not started");
  if (id != static_cast<NodeId>(slots_.size() + 1)) {
    return Status::invalid_argument("server ids must stay contiguous");
  }
  return boot(id);
}

void RuntimeCluster::remove_server(NodeId id) {
  if (id == kNoNode || id > slots_.size() || !slots_[id - 1]) return;
  teardown(slots_[id - 1]);
}

Status RuntimeCluster::crash(NodeId id) {
  if (cfg_.storage_dir.empty()) {
    return Status::invalid_argument("crash needs file-backed storage");
  }
  if (id == kNoNode || id > slots_.size() || !slots_[id - 1]) {
    return Status::invalid_argument("no such live server");
  }
  teardown(slots_[id - 1]);
  return Status::ok();
}

Status RuntimeCluster::restart(NodeId id) {
  if (cfg_.storage_dir.empty() || id == kNoNode || id > slots_.size() ||
      slots_[id - 1]) {
    return Status::invalid_argument("no such crashed server");
  }
  return boot(id);
}

NodeId RuntimeCluster::wait_for_leader(Duration max_wait) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(max_wait);
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& s : slots_) {
      if (!s) continue;
      bool leader = false;
      s->env->run_sync([&s, &leader] {
        leader = s->node && s->node->is_active_leader();
      });
      if (leader) return s->id;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return kNoNode;
}

void RuntimeCluster::with_node(NodeId id,
                               const std::function<void(ZabNode&)>& fn) {
  Slot& s = *slots_.at(id - 1);
  s.env->run_sync([&] { fn(*s.node); });
}

void RuntimeCluster::with_tree(
    NodeId id, const std::function<void(pb::ReplicatedTree&)>& fn) {
  Slot& s = *slots_.at(id - 1);
  s.env->run_sync([&] { fn(*s.tree); });
}

trace::TraceSnapshot RuntimeCluster::trace_snapshot(NodeId id) {
  trace::TraceSnapshot snap;
  snap.recorder = id;
  with_node(id, [&snap](ZabNode& n) { snap.events = n.trace().snapshot(); });
  return snap;
}

TraceCollector RuntimeCluster::collect_traces() {
  std::vector<trace::TraceSnapshot> rings;
  std::map<NodeId, std::int64_t> offsets;
  for (auto& s : slots_) {
    if (!s) continue;
    rings.push_back(trace_snapshot(s->id));
    with_node(s->id, [&offsets](ZabNode& n) {
      if (n.is_active_leader()) offsets = n.follower_clock_offsets();
    });
  }
  return TraceCollector::of_rings(rings, offsets);
}

Status RuntimeCluster::dump_trace(const std::string& path) {
  TraceCollector tc = collect_traces();
  return tc.dump_jsonl(path);
}

void RuntimeCluster::mute_node(NodeId id) {
  slots_.at(id - 1)->muted.store(true, std::memory_order_relaxed);
}

void RuntimeCluster::unmute_node(NodeId id) {
  slots_.at(id - 1)->muted.store(false, std::memory_order_relaxed);
}

void RuntimeCluster::stop_client_service(NodeId id) {
  Slot& s = *slots_.at(id - 1);
  if (s.client) s.client->stop();
}

MetricsSnapshot RuntimeCluster::metrics_snapshot(NodeId id) {
  // Snapshot on the loop thread: histograms are loop-owned.
  MetricsSnapshot snap;
  with_node(id, [&snap](ZabNode& n) { snap = n.metrics().snapshot(); });
  return snap;
}

RuntimeCluster::NodeView RuntimeCluster::view(NodeId id) {
  NodeView v{};
  with_node(id, [&v](ZabNode& n) {
    v.role = n.role();
    v.epoch = n.epoch();
    v.last_delivered = n.last_delivered();
    v.active_leader = n.is_active_leader();
  });
  return v;
}

}  // namespace zab::harness
