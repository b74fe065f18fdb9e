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

  // One registry per node, shared by its transport, storage and ZabNode.
  // Created up front because the TCP transports (below) are built before
  // their slots.
  std::vector<std::unique_ptr<MetricsRegistry>> regs;
  for (std::size_t i = 0; i < cfg_.n; ++i) {
    regs.push_back(std::make_unique<MetricsRegistry>());
  }

  // Bind every TCP listener first (ephemeral ports supported), then share
  // the complete port map with every transport before any node dials out.
  std::vector<std::unique_ptr<net::TcpTransport>> tcp;
  if (cfg_.use_tcp) {
    std::map<NodeId, std::uint16_t> ports;
    for (std::size_t i = 0; i < cfg_.n; ++i) {
      const NodeId id = static_cast<NodeId>(i + 1);
      net::TcpConfig tc;
      tc.id = id;
      tc.metrics = regs[i].get();
      tc.ports[id] =
          cfg_.base_port == 0
              ? 0
              : static_cast<std::uint16_t>(cfg_.base_port + id);
      auto t = net::TcpTransport::create(tc);
      if (!t.is_ok()) return t.status();
      tcp.push_back(std::move(t).take());
      ports[id] = tcp.back()->listen_port();
    }
    for (auto& t : tcp) t->set_peer_ports(ports);
  }

  for (std::size_t i = 0; i < cfg_.n; ++i) {
    const NodeId id = static_cast<NodeId>(i + 1);
    auto slot = std::make_unique<Slot>();
    slot->id = id;
    slot->metrics = std::move(regs[i]);

    if (cfg_.use_tcp) {
      slot->transport = std::move(tcp[i]);
    } else {
      slot->transport = std::make_unique<net::InprocTransport>(hub_, id);
    }

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
    slots_.push_back(std::move(slot));
  }

  for (auto& s : slots_) {
    Slot* slot = s.get();
    slot->env->start([this, slot] {
      ZabConfig nc = cfg_.node;
      nc.id = slot->id;
      nc.peers.clear();
      for (std::size_t i = 0; i < cfg_.n; ++i) {
        nc.peers.push_back(static_cast<NodeId>(i + 1));
      }
      slot->node = std::make_unique<ZabNode>(nc, *slot->env, *slot->storage,
                                             slot->metrics.get());
      if (cfg_.with_trees) {
        slot->tree = std::make_unique<pb::ReplicatedTree>(*slot->node);
      }
      slot->transport->set_handler(
          [slot](NodeId from, Bytes payload) {
            if (slot->muted.load(std::memory_order_relaxed)) return;
            slot->env->post([slot, from, payload = std::move(payload)] {
              if (slot->node) slot->node->on_message(from, payload);
            });
          });
      slot->node->start();
    });
  }

  if (cfg_.with_client_service) {
    for (auto& s : slots_) {
      // Barrier: the tree is constructed on the loop; sync before use.
      s->env->run_sync([] {});
      s->client = std::make_unique<pb::ClientService>(*s->env, *s->tree);
      ZAB_RETURN_IF_ERROR(s->client->start("127.0.0.1", 0));
    }
  }

  if (!cfg_.crash_dump_path.empty()) {
    recorder_.set_path(cfg_.crash_dump_path);
    for (auto& s : slots_) {
      Slot* slot = s.get();
      slot->recorder_slot = recorder_.register_slot();
      // The sink runs on the node's loop at watchdog cadence; a NEW stall
      // also forces an immediate dump — the exact moment the pipeline
      // wedged, not 50 ms of drift later.
      slot->env->run_sync([this, slot] {
        slot->node->set_postmortem_sink(
            [this, slot](const std::string& bundle, bool stalled) {
              recorder_.publish(slot->recorder_slot, bundle);
              if (stalled) recorder_.dump_now("stall");
            });
      });
    }
    recorder_.install();
  }

  if (cfg_.with_admin) {
    for (auto& s : slots_) {
      s->env->run_sync([] {});  // barrier: node/tree constructed on the loop
      net::AdminConfig ac;
      ac.port = cfg_.admin_base_port == 0
                    ? 0
                    : static_cast<std::uint16_t>(cfg_.admin_base_port + s->id);
      s->admin = std::make_unique<net::AdminServer>(
          ac, pb::make_admin_collector(*s->env, *s->node, s->tree.get(),
                                       *s->storage));
      ZAB_RETURN_IF_ERROR(s->admin->start());
    }
  }
  started_ = true;
  return Status::ok();
}

void RuntimeCluster::stop() {
  if (!started_) return;
  recorder_.uninstall();
  for (auto& s : slots_) {
    if (!s) continue;  // tombstone left by remove_server
    // Admin servers go first: their collectors post onto loops that are
    // about to stop.
    if (s->admin) s->admin->stop();
    if (s->client) s->client->stop();
  }
  // Silence nodes first (on their own loops), then stop loops & transports.
  for (auto& s : slots_) {
    if (!s) continue;
    s->env->run_sync([&s] {
      if (s->node) s->node->shutdown();
    });
  }
  for (auto& s : slots_) {
    if (s) s->transport->shutdown();
  }
  for (auto& s : slots_) {
    if (s) s->env->stop();
  }
  for (auto& s : slots_) {
    if (!s) continue;
    s->node.reset();
    s->tree.reset();
  }
  slots_.clear();
  started_ = false;
}

Status RuntimeCluster::add_server(NodeId id) {
  if (!started_) return Status::not_ready("cluster not started");
  if (cfg_.use_tcp) {
    return Status::invalid_argument(
        "add_server supports the in-process transport only");
  }
  if (id != static_cast<NodeId>(slots_.size() + 1)) {
    return Status::invalid_argument("server ids must stay contiguous");
  }

  // Same slot recipe as start(), for one server.
  auto slot = std::make_unique<Slot>();
  slot->id = id;
  slot->metrics = std::make_unique<MetricsRegistry>();
  slot->transport = std::make_unique<net::InprocTransport>(hub_, id);
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
    net::RuntimeEnv* env = slot->env.get();
    slot->file_storage->set_completion_poster(
        [env](std::function<void()> fn) { env->post(std::move(fn)); });
  }

  Slot* raw = slot.get();
  slots_.push_back(std::move(slot));
  raw->env->start([this, raw, id] {
    ZabConfig nc = cfg_.node;
    nc.id = id;
    // Seed config: learner. The original voting ensemble stays in `peers`;
    // the joiner itself boots as an observer, so it locates the leader and
    // DIFF/SNAP-syncs without voting or counting toward any quorum. The
    // committed reconfig txn — not this seed — is what makes it a voter.
    nc.peers.clear();
    for (std::size_t i = 0; i < cfg_.n; ++i) {
      nc.peers.push_back(static_cast<NodeId>(i + 1));
    }
    nc.observers.clear();
    nc.observers.push_back(id);
    raw->node = std::make_unique<ZabNode>(nc, *raw->env, *raw->storage,
                                          raw->metrics.get());
    if (cfg_.with_trees) {
      raw->tree = std::make_unique<pb::ReplicatedTree>(*raw->node);
    }
    raw->transport->set_handler([raw](NodeId from, Bytes payload) {
      if (raw->muted.load(std::memory_order_relaxed)) return;
      raw->env->post([raw, from, payload = std::move(payload)] {
        if (raw->node) raw->node->on_message(from, payload);
      });
    });
    raw->node->start();
  });

  if (cfg_.with_client_service) {
    raw->env->run_sync([] {});  // barrier: tree constructed on the loop
    raw->client = std::make_unique<pb::ClientService>(*raw->env, *raw->tree);
    ZAB_RETURN_IF_ERROR(raw->client->start("127.0.0.1", 0));
  }
  if (cfg_.with_admin) {
    raw->env->run_sync([] {});
    net::AdminConfig ac;
    ac.port = cfg_.admin_base_port == 0
                  ? 0
                  : static_cast<std::uint16_t>(cfg_.admin_base_port + id);
    raw->admin = std::make_unique<net::AdminServer>(
        ac, pb::make_admin_collector(*raw->env, *raw->node, raw->tree.get(),
                                     *raw->storage));
    ZAB_RETURN_IF_ERROR(raw->admin->start());
  }
  return Status::ok();
}

void RuntimeCluster::remove_server(NodeId id) {
  if (id == kNoNode || id > slots_.size()) return;
  auto& s = slots_.at(id - 1);
  if (!s) return;
  if (s->admin) s->admin->stop();
  if (s->client) s->client->stop();
  s->env->run_sync([&s] {
    if (s->node) s->node->shutdown();
  });
  s->transport->shutdown();
  s->env->stop();
  s->node.reset();
  s->tree.reset();
  s.reset();  // tombstone: ids of surviving slots stay stable
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

std::string RuntimeCluster::mntr(NodeId id) {
  std::string out;
  with_node(id, [&out](ZabNode& n) { out = n.mntr_report(); });
  return out;
}

std::string RuntimeCluster::mntr_json(NodeId id) {
  std::string out;
  with_node(id, [&out](ZabNode& n) { out = n.mntr_json(); });
  return out;
}

std::string RuntimeCluster::slowlog(NodeId id, std::size_t n) {
  std::string out;
  with_node(id, [&out, n](ZabNode& node) { out = node.slowlog_jsonl(n); });
  return out;
}

trace::TraceSnapshot RuntimeCluster::trace_snapshot(NodeId id) {
  trace::TraceSnapshot snap;
  snap.recorder = id;
  with_node(id, [&snap](ZabNode& n) { snap.events = n.trace().snapshot(); });
  return snap;
}

TraceCollector RuntimeCluster::collect_traces() {
  // The leader's offset estimates map follower clocks onto its own. The
  // estimator reports offset = follower_clock - leader_clock, so the
  // correction applied to follower events is the negation.
  std::map<NodeId, std::int64_t> offsets;
  NodeId leader = kNoNode;
  for (auto& s : slots_) {
    if (!s) continue;
    bool is_leader = false;
    s->env->run_sync([&] {
      if (s->node && s->node->is_active_leader()) {
        is_leader = true;
        offsets = s->node->follower_clock_offsets();
      }
    });
    if (is_leader) {
      leader = s->id;
      break;
    }
  }
  (void)leader;
  TraceCollector tc;
  for (auto& s : slots_) {
    if (!s) continue;
    std::int64_t correction = 0;
    if (auto it = offsets.find(s->id); it != offsets.end()) {
      correction = -it->second;
    }
    tc.add(trace_snapshot(s->id), correction);
  }
  return tc;
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
