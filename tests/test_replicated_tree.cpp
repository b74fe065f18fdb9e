// Integration tests: ReplicatedTree (the primary-backup service) over a
// simulated Zab ensemble — writes through any node, version preconditions,
// sequential nodes, failover with state preservation.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "harness/sim_cluster.h"
#include "pb/replicated_tree.h"

namespace zab::harness {
namespace {

using pb::Op;
using pb::OpResult;
using pb::ReplicatedTree;

struct TreeCluster {
  std::map<NodeId, std::unique_ptr<ReplicatedTree>> trees;
  std::unique_ptr<SimCluster> cluster;

  explicit TreeCluster(std::size_t n, std::uint64_t seed = 11) {
    ClusterConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.enable_checker = false;  // payloads here are txns, not harness ops
    cfg.boot_hook = [this](NodeId id, ZabNode& node) {
      trees[id] = std::make_unique<ReplicatedTree>(node);
    };
    cluster = std::make_unique<SimCluster>(cfg);
  }

  ReplicatedTree& tree(NodeId id) { return *trees.at(id); }
  SimCluster& c() { return *cluster; }

  /// Synchronous helper: submit at `id`, run the sim until the result lands.
  OpResult run_op(NodeId id, Op op) {
    OpResult out;
    bool done = false;
    tree(id).submit(std::move(op), [&](const OpResult& r) {
      out = r;
      done = true;
    });
    const TimePoint deadline = c().sim().now() + seconds(30);
    while (!done && c().sim().now() < deadline) c().run_for(millis(2));
    if (!done) out.status = Status::timeout("run_op");
    return out;
  }

  OpResult create(NodeId id, const std::string& path, const char* data,
                  bool seq = false) {
    Op op;
    op.type = pb::OpType::kCreate;
    op.path = path;
    op.data = to_bytes(data);
    op.sequential = seq;
    return run_op(id, std::move(op));
  }
  OpResult set(NodeId id, const std::string& path, const char* data,
               std::int64_t version = -1) {
    Op op;
    op.type = pb::OpType::kSetData;
    op.path = path;
    op.data = to_bytes(data);
    op.expected_version = version;
    return run_op(id, std::move(op));
  }
  OpResult del(NodeId id, const std::string& path,
               std::int64_t version = -1) {
    Op op;
    op.type = pb::OpType::kDelete;
    op.path = path;
    op.expected_version = version;
    return run_op(id, std::move(op));
  }
};

TEST(ReplicatedTree, WriteAtLeaderVisibleEverywhere) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);

  ASSERT_TRUE(tc.create(l, "/cfg", "v0").status.is_ok());
  tc.c().run_for(millis(200));
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(tc.tree(n).exists("/cfg")) << "node " << n;
    EXPECT_EQ(tc.tree(n).get("/cfg").value().value, to_bytes("v0"));
  }
}

TEST(ReplicatedTree, WriteThroughFollowerIsForwarded) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  const NodeId f = (l == 1) ? 2 : 1;

  auto res = tc.create(f, "/via-follower", "x");
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  tc.c().run_for(millis(200));
  EXPECT_TRUE(tc.tree(l).exists("/via-follower"));
}

TEST(ReplicatedTree, VersionPreconditionEnforced) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);

  ASSERT_TRUE(tc.create(l, "/n", "a").status.is_ok());
  ASSERT_TRUE(tc.set(l, "/n", "b", 0).status.is_ok());      // v0 -> v1
  auto stale = tc.set(l, "/n", "c", 0);                     // stale version
  EXPECT_EQ(stale.status.code(), Code::kBadVersion);
  ASSERT_TRUE(tc.set(l, "/n", "c", 1).status.is_ok());      // v1 -> v2
  EXPECT_EQ(tc.tree(l).stat("/n").value().value.version, 2u);
}

TEST(ReplicatedTree, CreateErrors) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);

  EXPECT_EQ(tc.create(l, "/missing/child", "x").status.code(),
            Code::kNotFound);
  ASSERT_TRUE(tc.create(l, "/dup", "x").status.is_ok());
  EXPECT_EQ(tc.create(l, "/dup", "y").status.code(), Code::kExists);
  EXPECT_EQ(tc.create(l, "not-a-path", "x").status.code(),
            Code::kInvalidArgument);
}

TEST(ReplicatedTree, SequentialNodesGetUniqueOrderedNames) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);

  ASSERT_TRUE(tc.create(l, "/queue", "").status.is_ok());
  std::vector<std::string> names;
  for (int i = 0; i < 5; ++i) {
    auto res = tc.create(l, "/queue/item-", "x", /*seq=*/true);
    ASSERT_TRUE(res.status.is_ok());
    names.push_back(res.path);
  }
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);  // zero-padded => lexicographic order
  }
  auto kids = tc.tree(l).children("/queue");
  ASSERT_TRUE(kids.is_ok());
  EXPECT_EQ(kids.value().value.size(), 5u);
}

TEST(ReplicatedTree, PipelinedWritesSeeSpeculativeState) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(tc.create(l, "/k", "0").status.is_ok());

  // Issue a chain of conditional writes back-to-back without waiting:
  // each must observe the previous one's version through the primary's
  // speculative (outstanding-change) state.
  std::vector<OpResult> results(5);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    Op op;
    op.type = pb::OpType::kSetData;
    op.path = "/k";
    op.data = to_bytes(std::to_string(i + 1));
    op.expected_version = i;  // chained precondition
    tc.tree(l).submit(std::move(op), [&results, &done, i](const OpResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  const TimePoint deadline = tc.c().sim().now() + seconds(10);
  while (done < 5 && tc.c().sim().now() < deadline) tc.c().run_for(millis(2));
  ASSERT_EQ(done, 5);
  for (const auto& r : results) EXPECT_TRUE(r.status.is_ok());
  EXPECT_EQ(tc.tree(l).stat("/k").value().value.version, 5u);
}

TEST(ReplicatedTree, StateSurvivesLeaderFailover) {
  TreeCluster tc(3);
  NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(tc.create(l, "/persist", "before-crash").status.is_ok());
  tc.c().run_for(millis(200));

  tc.c().crash(l);
  const NodeId l2 = tc.c().wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  ASSERT_NE(l2, l);
  EXPECT_EQ(tc.tree(l2).get("/persist").value().value, to_bytes("before-crash"));

  ASSERT_TRUE(tc.set(l2, "/persist", "after-crash").status.is_ok());
  // Old leader rejoins (fresh ReplicatedTree via boot hook) and catches up.
  tc.c().restart(l);
  tc.c().run_for(seconds(1));
  EXPECT_EQ(tc.tree(l).get("/persist").value().value, to_bytes("after-crash"));
}

TEST(ReplicatedTree, WriteLostWithTheLeaderIsAnsweredRetriable) {
  // A follower forwards a write; the leader dies before the REQUEST
  // arrives, so no txn will ever answer it. Once the follower has left the
  // old epoch, its callback must have run with a code the client retries
  // on, instead of leaving the client waiting out its op timeout.
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  const NodeId f = l == 1 ? 2 : 1;
  bool answered = false;
  Status status;
  Op op;
  op.type = pb::OpType::kCreate;
  op.path = "/lost";
  tc.tree(f).submit(std::move(op), [&](const OpResult& r) {
    answered = true;
    status = r.status;
  });
  tc.c().crash(l);
  ASSERT_NE(tc.c().wait_for_leader(), kNoNode);
  ASSERT_TRUE(answered);
  EXPECT_EQ(status.code(), Code::kNotReady);
  EXPECT_FALSE(tc.tree(f).exists("/lost"));
}

TEST(ReplicatedTree, WatchFiresOnReplicatedChange) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  const NodeId f = (l == 1) ? 2 : 1;
  ASSERT_TRUE(tc.create(l, "/watched", "v").status.is_ok());
  tc.c().run_for(millis(200));

  // Watch on a follower; change via the leader; watch fires when the txn
  // is applied at the follower.
  int fired = 0;
  tc.tree(f).tree().watch_data("/watched",
                               [&](pb::WatchEvent, const std::string&) {
                                 ++fired;
                               });
  ASSERT_TRUE(tc.set(l, "/watched", "w").status.is_ok());
  tc.c().run_for(millis(200));
  EXPECT_EQ(fired, 1);
}

TEST(ReplicatedTree, DeleteWithChildrenRejected) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(tc.create(l, "/p", "").status.is_ok());
  ASSERT_TRUE(tc.create(l, "/p/c", "").status.is_ok());
  EXPECT_EQ(tc.del(l, "/p").status.code(), Code::kInvalidArgument);
  ASSERT_TRUE(tc.del(l, "/p/c").status.is_ok());
  ASSERT_TRUE(tc.del(l, "/p").status.is_ok());
}

}  // namespace
}  // namespace zab::harness

// NOTE: appended multi-op tests reuse the TreeCluster fixture above via a
// second namespace block.
namespace zab::harness {
namespace {

TEST(ReplicatedTreeMulti, AtomicSuccessAppliesAllSubOps) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);

  std::vector<pb::Op> ops(3);
  ops[0].type = pb::OpType::kCreate;
  ops[0].path = "/app";
  ops[1].type = pb::OpType::kCreate;
  ops[1].path = "/app/a";
  ops[1].data = to_bytes("1");
  ops[2].type = pb::OpType::kCreate;
  ops[2].path = "/app/b";
  ops[2].data = to_bytes("2");

  pb::OpResult out;
  bool done = false;
  tc.tree(l).submit_multi(std::move(ops), [&](const pb::OpResult& r) {
    out = r;
    done = true;
  });
  const TimePoint deadline = tc.c().sim().now() + seconds(10);
  while (!done && tc.c().sim().now() < deadline) tc.c().run_for(millis(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  ASSERT_EQ(out.paths.size(), 3u);
  EXPECT_EQ(out.paths[1], "/app/a");

  tc.c().run_for(millis(200));
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(tc.tree(n).exists("/app/a")) << n;
    EXPECT_TRUE(tc.tree(n).exists("/app/b")) << n;
  }
}

TEST(ReplicatedTreeMulti, FailureIsAtomicAndReportsIndex) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(tc.create(l, "/existing", "x").status.is_ok());

  std::vector<pb::Op> ops(3);
  ops[0].type = pb::OpType::kCreate;
  ops[0].path = "/m1";
  ops[1].type = pb::OpType::kCreate;
  ops[1].path = "/existing";  // fails: already there
  ops[2].type = pb::OpType::kCreate;
  ops[2].path = "/m2";

  pb::OpResult out;
  bool done = false;
  tc.tree(l).submit_multi(std::move(ops), [&](const pb::OpResult& r) {
    out = r;
    done = true;
  });
  const TimePoint deadline = tc.c().sim().now() + seconds(10);
  while (!done && tc.c().sim().now() < deadline) tc.c().run_for(millis(2));
  ASSERT_TRUE(done);
  EXPECT_EQ(out.status.code(), Code::kExists);
  EXPECT_EQ(out.failed_index, 1);

  // A reconfig op is no tree op: inside a multi it is refused as invalid.
  std::vector<pb::Op> mixed(2);
  mixed[0].type = pb::OpType::kCreate;
  mixed[0].path = "/m3";
  mixed[1].type = pb::OpType::kReconfig;
  done = false;
  tc.tree(l).submit_multi(std::move(mixed), [&](const pb::OpResult& r) {
    out = r;
    done = true;
  });
  const TimePoint deadline2 = tc.c().sim().now() + seconds(10);
  while (!done && tc.c().sim().now() < deadline2) tc.c().run_for(millis(2));
  ASSERT_TRUE(done);
  EXPECT_EQ(out.status.code(), Code::kInvalidArgument);
  EXPECT_EQ(out.failed_index, 1);

  // Nothing applied anywhere: all-or-nothing.
  tc.c().run_for(millis(200));
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_FALSE(tc.tree(n).exists("/m1")) << n;
    EXPECT_FALSE(tc.tree(n).exists("/m2")) << n;
    EXPECT_FALSE(tc.tree(n).exists("/m3")) << n;
  }
}

TEST(ReplicatedTreeMulti, LaterSubOpsSeeEarlierEffects) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);

  // create /x, then set /x (version precondition 0), then delete a sibling
  // created in the same multi — every dependency is internal to the multi.
  std::vector<pb::Op> ops(4);
  ops[0].type = pb::OpType::kCreate;
  ops[0].path = "/x";
  ops[1].type = pb::OpType::kSetData;
  ops[1].path = "/x";
  ops[1].data = to_bytes("v1");
  ops[1].expected_version = 0;
  ops[2].type = pb::OpType::kCreate;
  ops[2].path = "/tmp";
  ops[3].type = pb::OpType::kDelete;
  ops[3].path = "/tmp";

  pb::OpResult out;
  bool done = false;
  tc.tree(l).submit_multi(std::move(ops), [&](const pb::OpResult& r) {
    out = r;
    done = true;
  });
  const TimePoint deadline = tc.c().sim().now() + seconds(10);
  while (!done && tc.c().sim().now() < deadline) tc.c().run_for(millis(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();

  tc.c().run_for(millis(200));
  EXPECT_EQ(tc.tree(l).get("/x").value().value, to_bytes("v1"));
  EXPECT_EQ(tc.tree(l).stat("/x").value().value.version, 1u);
  EXPECT_FALSE(tc.tree(l).exists("/tmp"));
}

TEST(ReplicatedTreeMulti, SequentialCreatesInsideMultiAreOrdered) {
  TreeCluster tc(3);
  const NodeId l = tc.c().wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(tc.create(l, "/q", "").status.is_ok());

  std::vector<pb::Op> ops(3);
  for (auto& op : ops) {
    op.type = pb::OpType::kCreate;
    op.path = "/q/item-";
    op.sequential = true;
  }
  pb::OpResult out;
  bool done = false;
  tc.tree(l).submit_multi(std::move(ops), [&](const pb::OpResult& r) {
    out = r;
    done = true;
  });
  const TimePoint deadline = tc.c().sim().now() + seconds(10);
  while (!done && tc.c().sim().now() < deadline) tc.c().run_for(millis(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.status.is_ok());
  ASSERT_EQ(out.paths.size(), 3u);
  EXPECT_LT(out.paths[0], out.paths[1]);
  EXPECT_LT(out.paths[1], out.paths[2]);
}

}  // namespace
}  // namespace zab::harness
