// Property tests: the paper's PO-broadcast properties must hold across
// randomized fault schedules (crashes, restarts, partitions, message loss)
// with arbitrary timing. Each seed drives a different schedule; the
// InvariantChecker validates integrity, total order, and local/global
// primary order over everything delivered, plus agreement at quiescence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "harness/sim_cluster.h"

namespace zab::harness {
namespace {

struct ChaosParams {
  std::uint64_t seed;
  std::size_t n;
  double loss;
};

class ZabChaos : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ZabChaos, InvariantsHoldUnderRandomFaults) {
  const ChaosParams p = GetParam();
  ClusterConfig cfg;
  cfg.n = p.n;
  cfg.seed = p.seed;
  cfg.net.loss_probability = p.loss;
  SimCluster c(cfg);
  Rng rng(p.seed ^ 0xc0ffee);

  std::uint64_t op = 0;
  const int kSteps = 120;
  for (int step = 0; step < kSteps; ++step) {
    // Burst of client operations at whoever currently leads.
    const int burst = static_cast<int>(rng.range(0, 8));
    for (int i = 0; i < burst; ++i) {
      (void)c.submit(make_op(op++, 16));
    }
    c.run_for(0);  // the leader's turn ends: the burst is on the wire

    // Random fault action.
    const auto dice = rng.below(100);
    const NodeId victim = static_cast<NodeId>(rng.range(1, static_cast<std::int64_t>(p.n)));
    if (dice < 12) {
      // Crash, but never take down a majority.
      if (c.up_nodes().size() > p.n / 2 + 1 && c.is_up(victim)) {
        c.crash(victim);
      }
    } else if (dice < 30) {
      if (!c.is_up(victim)) c.restart(victim);
    } else if (dice < 36 && p.n >= 3) {
      // Partition a random minority away for a while.
      std::set<NodeId> iso{victim};
      std::set<NodeId> rest;
      for (NodeId i = 1; i <= p.n; ++i) {
        if (i != victim) rest.insert(i);
      }
      c.network().set_partition({iso, rest});
    } else if (dice < 44) {
      c.network().heal();
    }

    c.run_for(millis(static_cast<std::int64_t>(rng.range(5, 120))));
  }

  // Quiesce: heal everything, restart everyone, let the ensemble converge.
  c.network().heal();
  for (NodeId i = 1; i <= p.n; ++i) {
    if (!c.is_up(i)) c.restart(i);
  }
  const NodeId l = c.wait_for_leader(seconds(60));
  ASSERT_NE(l, kNoNode) << "no leader after quiescence, seed=" << p.seed;

  // One final committed op, then wait for full convergence.
  Status st = c.replicate_ops(1, 16, seconds(60));
  ASSERT_TRUE(st.is_ok()) << st.to_string() << " seed=" << p.seed;

  for (const auto& v : c.checker().check()) {
    ADD_FAILURE() << "seed=" << p.seed << ": " << v;
  }
  for (const auto& v : c.checker().check_agreement(c.up_nodes())) {
    ADD_FAILURE() << "seed=" << p.seed << ": " << v;
  }
  // Something must actually have happened for the run to be meaningful.
  EXPECT_GT(c.checker().total_deliveries(), 0u);
}

std::vector<ChaosParams> chaos_grid() {
  std::vector<ChaosParams> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({seed, 3, 0.0});
  }
  for (std::uint64_t seed = 21; seed <= 40; ++seed) {
    out.push_back({seed, 5, 0.0});
  }
  for (std::uint64_t seed = 41; seed <= 55; ++seed) {
    out.push_back({seed, 3, 0.005});
  }
  for (std::uint64_t seed = 56; seed <= 70; ++seed) {
    out.push_back({seed, 5, 0.01});
  }
  for (std::uint64_t seed = 71; seed <= 76; ++seed) {
    out.push_back({seed, 7, 0.002});
  }
  // The wide grid cycles through the five (n, loss) bands above.
  constexpr std::pair<std::size_t, double> kBands[] = {
      {3, 0.0}, {5, 0.0}, {3, 0.005}, {5, 0.01}, {7, 0.002}};
  for (std::uint64_t seed = 77; seed <= 500; ++seed) {
    const auto& [n, loss] = kBands[seed % 5];
    out.push_back({seed, n, loss});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Wire batching equivalence (docs/PROTOCOL.md §14).
//
// Batching is a wire-level optimisation: multi-txn PROPOSE frames, coalesced
// cumulative ACKs and watermark COMMITs must change how many frames carry the
// history, never the history itself. The leader sends the txns broadcast in
// one loop turn as one frame, so the driver sets the batch size: run the same
// deterministic schedule — follower crash/restart, minority partition,
// message loss, and a leader failover — once running the simulator after
// every submit (one txn per frame) and once submitting bursts of 8 per turn,
// and require the delivered payload sequences to be byte-identical across
// arms and across all nodes within an arm.

using Deliveries = std::map<NodeId, std::vector<Bytes>>;

// Collapse a raw delivery stream to first occurrences. A replica that crashes
// and restarts replays its log from the last snapshot, so the raw stream
// legitimately repeats a prefix of timing-dependent length; total order
// (enforced by the InvariantChecker on the same run) guarantees the deduped
// stream IS the commit order.
std::vector<Bytes> first_occurrences(const std::vector<Bytes>& raw) {
  std::vector<Bytes> out;
  std::set<Bytes> seen;
  for (const Bytes& b : raw) {
    if (seen.insert(b).second) out.push_back(b);
  }
  return out;
}

struct ArmResult {
  Deliveries delivered;
  std::uint64_t ops = 0;
  std::uint64_t largest_batch = 0;  // max of zab.batch.propose_txns
};

ArmResult run_batching_arm(std::size_t burst, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.net.loss_probability = 0.005;
  SimCluster c(cfg);
  ArmResult out;

  c.add_deliver_hook([&out](NodeId n, const Txn& t) {
    out.delivered[n].push_back(t.data);
  });
  // A crash or restart rebuilds the node with a fresh registry: read the
  // batch sizes before every one, and at the end.
  auto note_batches = [&] {
    for (NodeId n : c.up_nodes()) {
      out.largest_batch = std::max(
          out.largest_batch,
          c.node(n).metrics().histogram("zab.batch.propose_txns").max());
    }
  };

  EXPECT_NE(c.wait_for_leader(seconds(60)), kNoNode)
      << "no initial leader, arm=" << burst;

  std::uint64_t op = 0;
  Zxid last{};
  // Sequential submit with retry: an op counts as accepted only once a leader
  // takes it, and the schedule quiesces before the leader crash below, so no
  // accepted op is ever abandoned — the precondition for cross-arm equality
  // (Zab only promises delivery of committed txns). After every `burst`
  // accepted ops the simulator runs what is due now, which ends the leader's
  // loop turn and flushes its batch; a refused submit runs it for 5 ms.
  auto pump = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      for (int tries = 0; tries < 10000; ++tries) {
        auto res = c.submit(make_op(op, 16));
        if (res.is_ok()) {
          last = res.value();
          ++op;
          break;
        }
        c.run_for(millis(5));
      }
      if (op % burst == 0) c.run_for(0);
    }
  };
  auto quiesce = [&] {
    EXPECT_TRUE(c.wait_delivered(last, seconds(120)))
        << "arm=" << burst << " stalled at " << to_string(last);
  };

  // Phase 1: plain traffic under message loss.
  pump(40);
  quiesce();

  // Phase 2: crash + restart a follower while traffic continues.
  const NodeId f1 = c.leader_id() == 1 ? 2 : 1;
  note_batches();
  c.crash(f1);
  pump(40);
  note_batches();
  c.restart(f1);
  pump(20);
  quiesce();

  // Phase 3: partition a follower into a minority, keep the traffic up, heal.
  const NodeId f2 = c.leader_id() == 5 ? 4 : 5;
  std::set<NodeId> iso{f2};
  std::set<NodeId> rest;
  for (NodeId i = 1; i <= 5; ++i) {
    if (i != f2) rest.insert(i);
  }
  c.network().set_partition({iso, rest});
  pump(40);
  c.network().heal();
  pump(20);
  quiesce();

  // Phase 4: leader failover. The quiesce above matters: txns still buffered
  // in the old leader's batcher (or accepted but uncommitted) die with it,
  // and the two arms buffer differently — equivalence covers committed txns.
  const NodeId l = c.leader_id();
  note_batches();
  c.crash(l);
  EXPECT_NE(c.wait_for_leader(seconds(60)), kNoNode)
      << "no post-failover leader, arm=" << burst;
  pump(40);
  note_batches();
  c.restart(l);
  pump(20);
  quiesce();
  note_batches();

  // The paper's invariants must hold within each arm independently.
  for (const auto& v : c.checker().check()) {
    ADD_FAILURE() << "arm=" << burst << ": " << v;
  }
  for (const auto& v : c.checker().check_agreement(c.up_nodes())) {
    ADD_FAILURE() << "arm=" << burst << ": " << v;
  }

  out.ops = op;
  return out;
}

TEST(ZabBatchingEquivalence, OnAndOffDeliverByteIdenticalSequences) {
  const ArmResult off = run_batching_arm(1, 0xb42c4);
  const ArmResult on = run_batching_arm(8, 0xb42c4);

  // Neither arm may quietly become the other: the reference arm's frames
  // carry one txn each, the batched arm's whole bursts.
  EXPECT_EQ(off.largest_batch, 1u);
  EXPECT_GE(on.largest_batch, 8u);

  // Both arms accept the identical op list: payloads are a function of the
  // per-arm accept counter, and the schedule never abandons an accepted op.
  ASSERT_EQ(off.ops, on.ops);
  ASSERT_GE(off.ops, 160u);
  ASSERT_EQ(off.delivered.size(), 5u);
  ASSERT_EQ(on.delivered.size(), 5u);

  const std::vector<Bytes> ref = first_occurrences(off.delivered.at(1));
  EXPECT_EQ(ref.size(), off.ops) << "reference arm lost accepted ops";
  for (NodeId id = 1; id <= 5; ++id) {
    EXPECT_EQ(first_occurrences(off.delivered.at(id)), ref)
        << "node " << unsigned{id} << " diverges within the reference arm";
    EXPECT_EQ(first_occurrences(on.delivered.at(id)), ref)
        << "node " << unsigned{id}
        << " (bursts of 8) diverges from the reference delivery sequence";
  }
}

// ---------------------------------------------------------------------------
// Reconfiguration safety (docs/PROTOCOL.md §16).
//
// A membership change is just another txn in primary order, so the paper's
// invariants must survive a mid-run promote (observer 4 -> voter) and a
// mid-run voter removal layered on top of a randomized fault schedule. On
// top of the usual checker properties we require a single agreed config
// sequence: every node that activates config version v activates it at the
// same zxid, and each node's config versions activate in increasing order.

struct ReconfigChaosParams {
  std::uint64_t seed;
  double loss;
};

class ZabReconfigSafety
    : public ::testing::TestWithParam<ReconfigChaosParams> {};

TEST_P(ZabReconfigSafety, ConfigSequenceAgreesAndDeliveriesStayPrefixes) {
  const ReconfigChaosParams p = GetParam();
  // Fixed topology: 3 voters + 1 observer (the sim cannot mint new nodes
  // mid-run, so growth is modeled as promoting the pre-booted learner).
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.n_observers = 1;
  cfg.seed = p.seed;
  cfg.net.loss_probability = p.loss;

  // Per-node activation history: (config version, activation zxid).
  std::map<NodeId, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      config_seq;
  cfg.boot_hook = [&config_seq](NodeId id, ZabNode& n) {
    n.add_reconfig_handler(
        [&config_seq, id](const zab::ClusterConfig& cc, Zxid z) {
          config_seq[id].push_back({cc.version, z.packed()});
        });
  };
  SimCluster c(cfg);

  Deliveries delivered;
  c.add_deliver_hook([&delivered](NodeId n, const Txn& t) {
    delivered[n].push_back(t.data);
  });

  Rng rng(p.seed ^ 0x5ec0f19);
  std::uint64_t op = 0;
  bool promote_done = false;
  bool remove_done = false;
  NodeId remove_victim = kNoNode;

  // Membership changes proposed mid-run, retried until a leader accepts
  // them (also reused after quiescence if the fault schedule starved them).
  auto try_promote = [&] {
    if (promote_done) return;
    if (const NodeId l = c.leader_id(); l != kNoNode) {
      const zab::ClusterConfig cc = c.node(l).cluster_config();
      if (cc.is_voter(4)) {
        promote_done = true;
      } else if (!c.node(l).reconfig_in_flight()) {
        zab::ClusterConfig target = cc;
        target.voters.push_back(4);
        target.observers.clear();
        (void)c.node(l).propose_reconfig(target, kNoNode, 0);
      }
    }
  };
  auto try_remove = [&] {
    if (!promote_done || remove_done) return;
    if (const NodeId l = c.leader_id(); l != kNoNode) {
      const zab::ClusterConfig cc = c.node(l).cluster_config();
      if (remove_victim != kNoNode && !cc.is_member(remove_victim)) {
        remove_done = true;
      } else if (!c.node(l).reconfig_in_flight()) {
        if (remove_victim == kNoNode) {
          // Pick one original voter that is not leading right now; the
          // promoted node 4 stays so the final ensemble is still 3-wide.
          for (NodeId cand : cc.voters) {
            if (cand != l && cand != 4) remove_victim = cand;
          }
        }
        if (remove_victim != kNoNode && cc.is_member(remove_victim)) {
          zab::ClusterConfig target = cc;
          std::erase(target.voters, remove_victim);
          std::erase(target.observers, remove_victim);
          target.addrs.erase(remove_victim);
          (void)c.node(l).propose_reconfig(target, kNoNode, 0);
        }
      }
    }
  };

  const int kSteps = 120;
  for (int step = 0; step < kSteps; ++step) {
    const int burst = static_cast<int>(rng.range(0, 6));
    for (int i = 0; i < burst; ++i) {
      (void)c.submit(make_op(op++, 16));
    }
    c.run_for(0);  // the leader's turn ends: the burst is on the wire

    if (step >= 30) try_promote();
    if (step >= 70) try_remove();

    // Fault action: keep at most one node down at a time so every quorum —
    // old, new, and joint during handoff windows — stays reachable.
    const auto dice = rng.below(100);
    const NodeId victim = static_cast<NodeId>(rng.range(1, 4));
    if (dice < 10) {
      if (c.up_nodes().size() == 4 && c.is_up(victim)) c.crash(victim);
    } else if (dice < 30) {
      if (!c.is_up(victim)) c.restart(victim);
    } else if (dice < 36) {
      std::set<NodeId> iso{victim};
      std::set<NodeId> rest;
      for (NodeId i = 1; i <= 4; ++i) {
        if (i != victim) rest.insert(i);
      }
      c.network().set_partition({iso, rest});
    } else if (dice < 44) {
      c.network().heal();
    }

    c.run_for(millis(static_cast<std::int64_t>(rng.range(5, 120))));
  }

  // Quiesce: heal, restart everyone (the removed member reboots too — it
  // must rescan its log, see it is no longer a voter, and stay harmless).
  c.network().heal();
  for (NodeId i = 1; i <= 4; ++i) {
    if (!c.is_up(i)) c.restart(i);
  }
  ASSERT_NE(c.wait_for_leader(seconds(60)), kNoNode)
      << "no leader after quiescence, seed=" << p.seed;

  // If the fault schedule starved either membership change, finish it now
  // on the healed ensemble so every run exercises both transitions.
  for (int i = 0; i < 600 && !(promote_done && remove_done); ++i) {
    try_promote();
    try_remove();
    c.run_for(millis(100));
  }

  const NodeId l = c.leader_id();
  ASSERT_NE(l, kNoNode) << "seed=" << p.seed;
  Status st = c.replicate_ops(1, 16, seconds(60));
  ASSERT_TRUE(st.is_ok()) << st.to_string() << " seed=" << p.seed;

  // Both membership changes must have committed on the final history.
  const zab::ClusterConfig final_cfg = c.node(l).cluster_config();
  ASSERT_TRUE(promote_done && remove_done)
      << "seed=" << p.seed << ": reconfigs did not both commit (promote="
      << promote_done << " remove=" << remove_done << ")";
  EXPECT_TRUE(final_cfg.is_voter(4)) << "seed=" << p.seed;
  EXPECT_FALSE(final_cfg.is_member(remove_victim)) << "seed=" << p.seed;
  EXPECT_GE(final_cfg.version, 2u) << "seed=" << p.seed;

  // The paper's invariants hold over everything delivered.
  for (const auto& v : c.checker().check()) {
    ADD_FAILURE() << "seed=" << p.seed << ": " << v;
  }
  // Agreement at quiescence is asserted over the surviving members only:
  // the removed node's frontier legitimately stops where it left.
  std::vector<NodeId> members;
  for (NodeId id : final_cfg.all_members()) {
    if (c.is_up(id)) members.push_back(id);
  }
  for (const auto& v : c.checker().check_agreement(members)) {
    ADD_FAILURE() << "seed=" << p.seed << ": " << v;
  }

  // Identical per-node delivery prefixes: every node's deduped stream is a
  // prefix of the longest one (total order makes the dedup the commit
  // order; replays after restart repeat only an existing prefix).
  std::vector<Bytes> ref;
  for (const auto& [nid, raw] : delivered) {
    std::vector<Bytes> seq = first_occurrences(raw);
    if (seq.size() > ref.size()) ref = std::move(seq);
  }
  for (const auto& [nid, raw] : delivered) {
    const std::vector<Bytes> seq = first_occurrences(raw);
    ASSERT_LE(seq.size(), ref.size()) << "seed=" << p.seed;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      ASSERT_EQ(seq[i], ref[i]) << "seed=" << p.seed << ": node "
                                << unsigned{nid}
                                << " diverges at index " << i;
    }
  }

  // A single agreed config sequence: version -> activation zxid is a
  // function (no node activates version v at a different zxid), and each
  // node's activations are version-monotonic after dedup.
  std::map<std::uint64_t, std::uint64_t> version_zxid;
  for (const auto& [nid, seq] : config_seq) {
    std::uint64_t last_version = 0;
    for (const auto& [version, zxid] : seq) {
      auto [it, inserted] = version_zxid.emplace(version, zxid);
      EXPECT_EQ(it->second, zxid)
          << "seed=" << p.seed << ": node " << unsigned{nid}
          << " activated config v" << version << " at a different zxid";
      // Replays after restart may repeat a version; they must never go back.
      EXPECT_GE(version, last_version)
          << "seed=" << p.seed << ": node " << unsigned{nid}
          << " activated configs out of order";
      last_version = std::max(last_version, version);
    }
  }
  EXPECT_GE(version_zxid.size(), 2u) << "seed=" << p.seed;
}

std::vector<ReconfigChaosParams> reconfig_grid() {
  std::vector<ReconfigChaosParams> out;
  for (const double loss : {0.0, 0.005}) {
    for (std::uint64_t seed = 101; seed <= 200; ++seed) {
      out.push_back({seed, loss});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ZabReconfigSafety, ::testing::ValuesIn(reconfig_grid()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_loss" +
             std::to_string(static_cast<int>(info.param.loss * 1000));
    });

INSTANTIATE_TEST_SUITE_P(Schedules, ZabChaos, ::testing::ValuesIn(chaos_grid()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_n" + std::to_string(info.param.n) +
                                  "_loss" +
                                  std::to_string(static_cast<int>(
                                      info.param.loss * 1000));
                         });

}  // namespace
}  // namespace zab::harness
