// Tests for the consistency-tiered read path (PROTOCOL.md §15): wire codec
// for the consistency byte + fence zxid + kSync, the sync() barrier, parked
// kSession reads on lagging followers (wake, timeout, rotation), kLocal
// staleness, watch registration at the fenced read's apply point, and the
// session guarantees end to end — monotonic reads and read-your-writes
// across endpoint rotation and leader failover.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "harness/runtime_cluster.h"
#include "pb/client_protocol.h"
#include "pb/remote_client.h"

namespace zab::pb {
namespace {

template <typename Pred>
bool eventually(Pred p, int budget_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  return p();
}

std::uint64_t counter_of(const MetricsSnapshot& snap, const std::string& n) {
  auto it = snap.counters.find(n);
  return it == snap.counters.end() ? 0 : it->second;
}

struct Fixture {
  harness::RuntimeCluster cluster;
  std::vector<Endpoint> eps;

  Fixture()
      : cluster([] {
          harness::RuntimeClusterConfig cfg;
          cfg.n = 3;
          cfg.with_client_service = true;
          return cfg;
        }()) {}

  NodeId up() {
    if (!cluster.start().is_ok()) return kNoNode;
    const NodeId l = cluster.wait_for_leader(seconds(15));
    if (l == kNoNode) return kNoNode;
    for (NodeId n = 1; n <= 3; ++n) {
      eps.push_back({"127.0.0.1", cluster.client_port(n)});
    }
    return l;
  }

  NodeId wait_for_leader_excluding(NodeId out) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      for (NodeId n = 1; n <= 3; ++n) {
        if (n == out) continue;
        const auto v = cluster.view(n);
        if (v.role == Role::kLeading && v.active_leader) return n;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return kNoNode;
  }
};

// --- Wire codec -------------------------------------------------------------

TEST(ReadConsistencyCodec, TierAndFenceRoundTrip) {
  for (const auto tier :
       {ReadConsistency::kLocal, ReadConsistency::kSession,
        ReadConsistency::kLinearizable}) {
    ClientRequest r;
    r.xid = 42;
    r.kind = ClientOpKind::kGetData;
    r.path = "/fenced";
    r.watch = true;
    r.consistency = tier;
    r.fence_zxid = Zxid{3, 17}.packed();
    auto back = decode_client_request(encode_client_request(r));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().consistency, tier);
    EXPECT_EQ(back.value().fence_zxid, Zxid(3, 17).packed());
    EXPECT_TRUE(back.value().watch);
  }
}

TEST(ReadConsistencyCodec, SyncKindRoundTrip) {
  ClientRequest r;
  r.xid = 7;
  r.kind = ClientOpKind::kSync;
  auto back = decode_client_request(encode_client_request(r));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().kind, ClientOpKind::kSync);
}

TEST(ReadConsistencyCodec, RejectsUnknownTier) {
  ClientRequest r;
  r.kind = ClientOpKind::kGetData;
  r.path = "/x";
  r.consistency = static_cast<ReadConsistency>(9);  // off the enum
  EXPECT_FALSE(decode_client_request(encode_client_request(r)).is_ok());
}

TEST(ReadConsistencyCodec, RejectsPreFenceWireVersion) {
  // Fenced reads changed the request layout, so v3 frames must not be
  // parsed by (or as) the v2 codec: the version byte is load-bearing.
  ClientRequest r;
  r.kind = ClientOpKind::kGetData;
  r.path = "/x";
  Bytes wire = encode_client_request(r);
  ASSERT_GE(wire.size(), 2u);
  wire[1] = 2;  // header = magic, version, tag
  EXPECT_FALSE(decode_client_request(wire).is_ok());
}

// --- sync() and kLinearizable ----------------------------------------------

TEST(ReadConsistencyE2E, SyncBarrierFencesPastAnotherClientsWrite) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  RemoteClient writer(ClientConfig{.servers = {f.eps[l - 1]}});
  const NodeId follower = (l == 1) ? 2 : 1;
  RemoteClient observer(ClientConfig{.servers = {f.eps[follower - 1]}});

  ASSERT_TRUE(writer.create("/sync-demo", to_bytes("v0")).is_ok());
  const std::uint64_t write_zxid = writer.last_seen_zxid();

  // The observer learned of the write out of band (from `writer`, not from
  // its own session), so its fence does not cover it. sync() closes the
  // gap: one barrier through the pipeline, after which a kSession read —
  // even on a follower — must return the write.
  auto barrier = observer.sync();
  ASSERT_TRUE(barrier.is_ok()) << barrier.status().to_string();
  EXPECT_GE(barrier.value().packed(), write_zxid);
  EXPECT_GE(observer.last_seen_zxid(), write_zxid);

  auto v = observer.get("/sync-demo");
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(v.value().value, to_bytes("v0"));
  EXPECT_GE(v.value().zxid.packed(), write_zxid);
  f.cluster.stop();
}

TEST(ReadConsistencyE2E, LinearizableReadObservesForeignWriteInOneCall) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  RemoteClient writer(ClientConfig{.servers = {f.eps[l - 1]}});
  const NodeId follower = (l == 1) ? 2 : 1;
  RemoteClient observer(ClientConfig{.servers = {f.eps[follower - 1]}});

  ASSERT_TRUE(writer.create("/lin", to_bytes("truth")).is_ok());
  const std::uint64_t write_zxid = writer.last_seen_zxid();

  // kLinearizable needs no client-side sync(): the server flushes the
  // barrier itself, so one round trip observes every prior commit.
  auto v = observer.get(
      "/lin", ReadOptions{.consistency = ReadConsistency::kLinearizable});
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(v.value().value, to_bytes("truth"));
  EXPECT_GE(v.value().zxid.packed(), write_zxid);

  const auto snap = f.cluster.metrics_snapshot(follower);
  auto it = snap.histograms.find("zab.sync.barrier_ns");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->second.count(), 1u);
  f.cluster.stop();
}

// --- kLocal: staleness allowed, watermark reported --------------------------

TEST(ReadConsistencyE2E, LocalTierServesStaleWithoutParking) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  const NodeId lag = (l == 1) ? 2 : 1;
  RemoteClient reader(ClientConfig{.servers = {f.eps[lag - 1]}});
  // Establish the session pre-mute (retried: ping() is single-shot).
  ASSERT_TRUE(eventually([&] { return reader.ping().is_ok(); }));

  f.cluster.mute_node(lag);
  RemoteClient writer(ClientConfig{.servers = {f.eps[l - 1]}});
  ASSERT_TRUE(writer.create("/after-lag", to_bytes("new")).is_ok());
  const std::uint64_t write_zxid = writer.last_seen_zxid();

  // A kLocal read on the lagging follower answers immediately from its
  // stale tree — no parking, no kNotReady — and reports the watermark it
  // is consistent with, which is visibly behind the write.
  ClientRequest req;
  req.kind = ClientOpKind::kExists;
  req.path = "/after-lag";
  req.consistency = ReadConsistency::kLocal;
  auto resp = reader.call(req);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().code, Code::kOk);
  EXPECT_FALSE(resp.value().exists);  // stale: the write is invisible here
  EXPECT_LT(resp.value().zxid.packed(), write_zxid);
  EXPECT_GE(counter_of(f.cluster.metrics_snapshot(lag),
                       "zab.read.served_local"),
            1u);

  f.cluster.unmute_node(lag);
  f.cluster.stop();
}

// --- kSession: parking, wake, timeout --------------------------------------

TEST(ReadConsistencyE2E, SessionReadParksUntilTheFenceArrives) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  const NodeId lag = (l == 1) ? 2 : 1;
  RemoteClient reader(
      ClientConfig{.servers = {f.eps[lag - 1]}, .op_timeout = seconds(20)});
  // Connect while the follower is live (retried: ping() is single-shot).
  ASSERT_TRUE(eventually([&] { return reader.ping().is_ok(); }));

  f.cluster.mute_node(lag);
  RemoteClient writer(ClientConfig{.servers = {f.eps[l - 1]}});
  ASSERT_TRUE(writer.create("/parked", to_bytes("finally")).is_ok());
  const std::uint64_t fence = writer.last_seen_zxid();

  // Heal the follower shortly after the read parks: the deliver path must
  // wake the read once resync pushes the watermark past the fence.
  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    f.cluster.unmute_node(lag);
  });

  ClientRequest req;
  req.kind = ClientOpKind::kGetData;
  req.path = "/parked";
  req.consistency = ReadConsistency::kSession;
  req.fence_zxid = fence;  // out-of-band fence handoff (writer -> reader)
  const auto t0 = std::chrono::steady_clock::now();
  auto resp = reader.call(req);
  const auto waited = std::chrono::steady_clock::now() - t0;
  healer.join();

  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().code, Code::kOk);
  EXPECT_EQ(resp.value().data, to_bytes("finally"));
  EXPECT_GE(resp.value().zxid.packed(), fence);
  // It genuinely waited for the heal rather than answering stale.
  EXPECT_GE(waited, std::chrono::milliseconds(250));

  const auto snap = f.cluster.metrics_snapshot(lag);
  EXPECT_GE(counter_of(snap, "zab.read.fenced"), 1u);
  auto it = snap.histograms.find("zab.read.parked_ns");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->second.count(), 1u);
  f.cluster.stop();
}

TEST(ReadConsistencyE2E, FenceTimeoutReturnsNotReadyAndClientRotates) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  const NodeId lag = (l == 1) ? 2 : 1;

  // Endpoint order matters: the reader starts on the soon-lagging follower
  // and must end up answered by the leader.
  RemoteClient reader(
      ClientConfig{.servers = {f.eps[lag - 1], f.eps[l - 1]}});
  ASSERT_TRUE(eventually([&] { return reader.ping().is_ok(); }));
  ASSERT_EQ(reader.current_endpoint() % 2, 0u);

  f.cluster.mute_node(lag);
  RemoteClient writer(ClientConfig{.servers = {f.eps[l - 1]}});
  ASSERT_TRUE(writer.create("/rotated", to_bytes("served-elsewhere")).is_ok());

  // The fenced read parks on the muted follower, waits out the fence
  // timeout (kReadFenceTimeout), gets kNotReady, and transparently rotates
  // to the leader, whose watermark covers the fence.
  ClientRequest req;
  req.kind = ClientOpKind::kGetData;
  req.path = "/rotated";
  req.consistency = ReadConsistency::kSession;
  req.fence_zxid = writer.last_seen_zxid();
  auto resp = reader.call(req);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().code, Code::kOk);
  EXPECT_EQ(resp.value().data, to_bytes("served-elsewhere"));
  EXPECT_EQ(reader.current_endpoint() % 2, 1u);  // it did rotate
  EXPECT_GE(counter_of(f.cluster.metrics_snapshot(lag),
                       "zab.read.not_ready"),
            1u);

  f.cluster.unmute_node(lag);
  f.cluster.stop();
}

// --- Watch ordering ---------------------------------------------------------

TEST(ReadConsistencyE2E, WatchRegistersAtTheFencedReadsApplyPoint) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  const NodeId lag = (l == 1) ? 2 : 1;
  RemoteClient reader(
      ClientConfig{.servers = {f.eps[lag - 1]}, .op_timeout = seconds(20)});
  ASSERT_TRUE(eventually([&] { return reader.ping().is_ok(); }));

  f.cluster.mute_node(lag);
  RemoteClient writer(ClientConfig{.servers = {f.eps[l - 1]}});
  ASSERT_TRUE(writer.create("/watched-fence", to_bytes("w1")).is_ok());
  const std::uint64_t fence = writer.last_seen_zxid();

  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    f.cluster.unmute_node(lag);
  });

  ClientRequest req;
  req.kind = ClientOpKind::kGetData;
  req.path = "/watched-fence";
  req.watch = true;
  req.consistency = ReadConsistency::kSession;
  req.fence_zxid = fence;
  auto resp = reader.call(req);
  healer.join();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().data, to_bytes("w1"));

  // Had the watch registered at request ingress, the fence write itself —
  // applied while the read sat parked — would have consumed the one-shot
  // watch and pushed an event for state the read then returned anyway.
  // Registered at the apply point, nothing has fired yet...
  EXPECT_FALSE(reader.poll_watch_event().has_value());

  // ...and the NEXT change is what fires it.
  ASSERT_TRUE(writer.set("/watched-fence", to_bytes("w2")).is_ok());
  auto ev = reader.wait_watch_event(seconds(5));
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  EXPECT_EQ(ev.value().event, WatchEvent::kDataChanged);
  EXPECT_EQ(ev.value().path, "/watched-fence");
  f.cluster.stop();
}

// --- Session guarantees under rotation and failover -------------------------

TEST(ReadConsistencyE2E, SessionReadsAreMonotonicAcrossRotationAndFailover) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  RemoteClient client(
      ClientConfig{.servers = f.eps, .op_timeout = seconds(15)});
  ASSERT_TRUE(client.create("/mono", to_bytes("0")).is_ok());

  // Background noise on a different path keeps zxids advancing, so a
  // non-monotonic read (e.g. served by a replica behind one we already
  // read from) would be visible in the returned watermark.
  std::atomic<bool> stop_noise{false};
  std::thread noise([&] {
    RemoteClient w(ClientConfig{.servers = {f.eps[l - 1]}});
    int i = 0;
    while (!stop_noise.load()) {
      (void)w.set("/mono-noise",
                  to_bytes(std::to_string(i++)), /*expected_version=*/-1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  ASSERT_TRUE(eventually(
      [&] { return client.exists("/mono-noise").is_ok(); }, 5000));

  std::uint64_t prev_zxid = 0;
  NodeId failed_leader = kNoNode;
  const int kRounds = 60;
  for (int i = 0; i < kRounds; ++i) {
    if (i == kRounds / 3) {
      // Force endpoint rotation: kill the connected server's client port.
      const NodeId cur = static_cast<NodeId>(client.current_endpoint() + 1);
      if (cur != l) f.cluster.stop_client_service(cur);
    }
    if (i == 2 * kRounds / 3) {
      // Leader failover: the session and the fence must both survive.
      f.cluster.mute_node(l);
      f.cluster.stop_client_service(l);
      failed_leader = l;
      ASSERT_NE(f.wait_for_leader_excluding(l), kNoNode);
    }

    // Read-your-writes: our own write, read back immediately, every round.
    ASSERT_TRUE(
        client.set("/mono", to_bytes(std::to_string(i)), -1).is_ok())
        << "round " << i;
    auto r = client.get("/mono");
    ASSERT_TRUE(r.is_ok()) << "round " << i << ": " << r.status().to_string();
    EXPECT_EQ(r.value().value, to_bytes(std::to_string(i))) << "round " << i;
    // Monotonic session reads: the watermark never travels backwards.
    EXPECT_GE(r.value().zxid.packed(), prev_zxid) << "round " << i;
    prev_zxid = r.value().zxid.packed();
  }
  EXPECT_NE(failed_leader, kNoNode);  // the failover leg actually ran

  stop_noise = true;
  noise.join();
  f.cluster.stop();
}

TEST(ReadConsistencyE2E, ReadYourWritesViaLaggingFollower) {
  Fixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);
  const NodeId lag = (l == 1) ? 2 : 1;
  // Only two endpoints: the leader (write path) and the follower we are
  // about to lag. Losing the leader's client port forces the read there.
  RemoteClient client(ClientConfig{
      .servers = {f.eps[l - 1], f.eps[lag - 1]}, .op_timeout = seconds(15)});
  // Session must exist everywhere before the follower lags (retried).
  ASSERT_TRUE(eventually([&] { return client.ping().is_ok(); }));

  f.cluster.mute_node(lag);
  ASSERT_TRUE(client.create("/ryw", to_bytes("mine")).is_ok());
  const std::uint64_t write_zxid = client.last_seen_zxid();
  f.cluster.stop_client_service(l);

  // The follower is behind this client's fence: it refuses the session
  // re-attach (kNotReady) until resync catches it up, so the read can
  // never be answered from pre-write state. Heal it mid-read.
  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    f.cluster.unmute_node(lag);
  });
  auto r = client.get("/ryw");
  healer.join();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().value, to_bytes("mine"));
  EXPECT_GE(r.value().zxid.packed(), write_zxid);
  EXPECT_EQ(client.current_endpoint() % 2, 1u);  // served by the follower
  f.cluster.stop();
}

}  // namespace
}  // namespace zab::pb
