// Quickstart: a 3-replica coordination service in one process.
//
// Starts three Zab replicas on real threads, talking TCP over loopback,
// waits for leader election, and uses the replicated data tree: create a
// znode, read it from every replica, conditional update, and a watch that
// fires when the value changes. Exits 1 when a step does not come out as
// it prints.
//
//   $ ./examples/quickstart
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "harness/runtime_cluster.h"

using namespace zab;
using namespace zab::harness;

namespace {

template <typename Pred>
bool eventually(Pred p, int budget_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return p();
}

/// Run one write synchronously against the given replica.
pb::OpResult write(RuntimeCluster& cluster, NodeId id,
                   const std::function<void(pb::ReplicatedTree&,
                                            pb::ReplicatedTree::ResultFn)>& op) {
  std::atomic<bool> done{false};
  pb::OpResult out;
  cluster.with_tree(id, [&](pb::ReplicatedTree& tree) {
    op(tree, [&](const pb::OpResult& r) {
      out = r;
      done = true;
    });
  });
  if (!eventually([&] { return done.load(); })) {
    out.status = Status::timeout("no reply");
  }
  return out;
}

}  // namespace

int main() {
  logging::set_default_level(LogLevel::kWarn);
  std::printf("== Zab quickstart: 3 replicas over loopback TCP ==\n\n");

  RuntimeClusterConfig cfg;
  cfg.n = 3;
  RuntimeCluster cluster(cfg);
  if (Status st = cluster.start(); !st.is_ok()) {
    std::printf("failed to start: %s\n", st.to_string().c_str());
    return 1;
  }

  const NodeId leader = cluster.wait_for_leader();
  if (leader == kNoNode) {
    std::printf("no leader elected\n");
    return 1;
  }
  std::printf("leader elected: node %u (epoch %u)\n", leader,
              cluster.view(leader).epoch);

  // 1. Create a znode through the leader.
  auto res = write(cluster, leader,
                   [](pb::ReplicatedTree& t, pb::ReplicatedTree::ResultFn cb) {
                     t.create("/config", to_bytes("v1"), std::move(cb));
                   });
  std::printf("create /config -> %s (zxid %s)\n",
              res.status.to_string().c_str(), to_string(res.zxid).c_str());
  bool ok = res.status.is_ok();

  // 2. Read it back from every replica (local reads).
  for (NodeId n = 1; n <= 3; ++n) {
    eventually([&] {
      bool ok = false;
      cluster.with_tree(n, [&](pb::ReplicatedTree& t) { ok = t.exists("/config"); });
      return ok;
    });
    cluster.with_tree(n, [&](pb::ReplicatedTree& t) {
      auto v = t.get("/config");
      std::printf("  node %u reads /config = %s\n", n,
                  v.is_ok() ? to_string_copy(v.value().value).c_str() : "<missing>");
    });
  }

  // 3. Watch for the next change from a follower.
  const NodeId follower = (leader == 1) ? 2 : 1;
  std::atomic<bool> watch_fired{false};
  cluster.with_tree(follower, [&](pb::ReplicatedTree& t) {
    t.tree().watch_data("/config", [&](pb::WatchEvent, const std::string& p) {
      std::printf("  [watch on node %u] %s changed\n", follower, p.c_str());
      watch_fired = true;
    });
  });

  // 4. Conditional update submitted through the *follower* (it forwards to
  // the primary), with a version precondition.
  res = write(cluster, follower,
              [](pb::ReplicatedTree& t, pb::ReplicatedTree::ResultFn cb) {
                t.set_data("/config", to_bytes("v2"), /*expected_version=*/0,
                           std::move(cb));
              });
  std::printf("set /config (if version==0) via node %u -> %s\n", follower,
              res.status.to_string().c_str());
  ok = ok && res.status.is_ok();
  eventually([&] { return watch_fired.load(); });

  // 5. A stale conditional update fails with BadVersion.
  res = write(cluster, leader,
              [](pb::ReplicatedTree& t, pb::ReplicatedTree::ResultFn cb) {
                t.set_data("/config", to_bytes("v3"), /*expected_version=*/0,
                           std::move(cb));
              });
  std::printf("set /config (stale version) -> %s (expected BadVersion)\n",
              res.status.to_string().c_str());
  ok = ok && res.status.code() == Code::kBadVersion;

  cluster.with_tree(leader, [](pb::ReplicatedTree& t) {
    auto stat = t.stat("/config");
    std::printf("\nfinal: /config version=%u, value committed at %s\n",
                stat.value().value.version,
                to_string(stat.value().value.mzxid).c_str());
  });

  cluster.stop();
  if (!ok) {
    std::printf("\nquickstart FAILED: a step did not come out as printed.\n");
    return 1;
  }
  std::printf("\nquickstart complete.\n");
  return 0;
}
