// A replicated key-value store over real TCP with file-backed logs.
//
// Phase 1: start a 3-node ensemble (TCP loopback, segmented on-disk txn
// logs under /tmp), run a small workload, report per-node state.
// Phase 2: stop the whole ensemble and start a fresh one over the same
// directories — the data survives via log recovery, demonstrating the
// crash-recovery guarantees end to end.
//
//   $ ./examples/kv_cluster_tcp [workdir]
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
bool eventually(Pred p, int budget_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return p();
}

constexpr int kKeys = 50;

bool run_workload(RuntimeCluster& cluster, NodeId leader) {
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  for (int i = 0; i < kKeys; ++i) {
    cluster.with_tree(leader, [&, i](pb::ReplicatedTree& t) {
      t.create("/kv" + std::to_string(i),
               to_bytes("value-" + std::to_string(i)),
               [&](const pb::OpResult& r) {
                 if (r.status.is_ok()) {
                   ++completed;
                 } else {
                   ++failed;
                 }
               });
    });
  }
  const bool ok =
      eventually([&] { return completed.load() + failed.load() == kKeys; });
  std::printf("  workload: %d committed, %d failed\n", completed.load(),
              failed.load());
  return ok && failed.load() == 0;
}

void report(RuntimeCluster& cluster, std::size_t n) {
  for (NodeId id = 1; id <= n; ++id) {
    const auto v = cluster.view(id);
    std::size_t nodes = 0;
    cluster.with_tree(id, [&](pb::ReplicatedTree& t) {
      nodes = t.tree().node_count();
    });
    std::printf("  node %u: %-9s epoch=%u last_delivered=%s znodes=%zu\n", id,
                role_name(v.role), v.epoch,
                to_string(v.last_delivered).c_str(), nodes);
  }
}

}  // namespace

int main(int argc, char** argv) {
  logging::set_default_level(LogLevel::kWarn);
  const std::string workdir =
      argc > 1 ? argv[1] : "/tmp/zab_kv_cluster_example";
  (void)storage::remove_dir_recursive(workdir);

  std::printf("== replicated KV over TCP, logs under %s ==\n\n",
              workdir.c_str());

  // ---- Phase 1: fresh ensemble -------------------------------------------
  {
    RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.storage_dir = workdir;
    RuntimeCluster cluster(cfg);
    if (Status st = cluster.start(); !st.is_ok()) {
      std::printf("start failed: %s\n", st.to_string().c_str());
      return 1;
    }
    const NodeId leader = cluster.wait_for_leader(seconds(20));
    if (leader == kNoNode) {
      std::printf("no leader\n");
      return 1;
    }
    std::printf("phase 1: leader is node %u; writing %d keys over TCP...\n",
                leader, kKeys);
    if (!run_workload(cluster, leader)) return 1;

    // Wait until every replica applied everything.
    Zxid frontier = cluster.view(leader).last_delivered;
    eventually([&] {
      for (NodeId id = 1; id <= 3; ++id) {
        if (cluster.view(id).last_delivered < frontier) return false;
      }
      return true;
    });
    report(cluster, 3);
    cluster.stop();
    std::printf("phase 1 done; ensemble stopped (logs remain on disk).\n\n");
  }

  // ---- Phase 2: recover from the on-disk logs ------------------------------
  {
    RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.storage_dir = workdir;  // same directories: recovery path
    RuntimeCluster cluster(cfg);
    if (Status st = cluster.start(); !st.is_ok()) {
      std::printf("restart failed: %s\n", st.to_string().c_str());
      return 1;
    }
    const NodeId leader = cluster.wait_for_leader(seconds(20));
    if (leader == kNoNode) {
      std::printf("no leader after restart\n");
      return 1;
    }
    std::printf("phase 2: recovered ensemble, leader node %u (epoch %u)\n",
                leader, cluster.view(leader).epoch);

    int present = 0;
    cluster.with_tree(leader, [&](pb::ReplicatedTree& t) {
      for (int i = 0; i < kKeys; ++i) {
        auto v = t.get("/kv" + std::to_string(i));
        if (v.is_ok() &&
            v.value().value == to_bytes("value-" + std::to_string(i))) {
          ++present;
        }
      }
    });
    std::printf("  %d/%d keys recovered from the transaction logs\n", present,
                kKeys);
    report(cluster, 3);
    cluster.stop();

    if (present != kKeys) {
      std::printf("RECOVERY FAILED\n");
      return 1;
    }
  }

  std::printf("\nall data survived a full-ensemble restart. done.\n");
  return 0;
}
