// End-to-end tests for the external client path: RemoteClient over TCP to
// the replicas' client service, through the replicated pipeline, and back.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "harness/runtime_cluster.h"
#include "pb/remote_client.h"

namespace zab::pb {
namespace {

struct ClientServerFixture {
  harness::RuntimeCluster cluster;
  std::vector<Endpoint> endpoints;

  ClientServerFixture()
      : cluster([] {
          harness::RuntimeClusterConfig cfg;
          cfg.n = 3;
          cfg.with_client_service = true;
          return cfg;
        }()) {}

  bool up() {
    if (!cluster.start().is_ok()) return false;
    if (cluster.wait_for_leader(seconds(15)) == kNoNode) return false;
    for (NodeId n = 1; n <= 3; ++n) {
      endpoints.push_back({"127.0.0.1", cluster.client_port(n)});
    }
    return true;
  }
};

/// A hand-rolled client connection: u32-length-prefixed frames over a
/// blocking socket whose sends and receives time out after 5 s.
struct RawConn {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);

  /// `rcvbuf` > 0 shrinks the kernel's receive buffer (before connecting,
  /// so the advertised window shrinks with it).
  explicit RawConn(std::uint16_t port, int rcvbuf = 0) {
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  static Bytes frame(const Bytes& payload) {
    BufWriter w;
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
    return std::move(w).take();
  }
  [[nodiscard]] bool send(const Bytes& b) const {
    return ::send(fd, b.data(), b.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(b.size());
  }
  [[nodiscard]] bool recv_frame(Bytes* out) const {
    std::uint8_t hdr[4];
    if (::recv(fd, hdr, 4, MSG_WAITALL) != 4) return false;
    std::uint32_t len = 0;
    std::memcpy(&len, hdr, 4);
    out->resize(len);
    return ::recv(fd, out->data(), len, MSG_WAITALL) ==
           static_cast<ssize_t>(len);
  }
  /// Open a session; 0 when the handshake fails.
  std::uint64_t handshake(std::uint32_t timeout_ms) {
    ConnectRequest req;
    req.timeout_ms = timeout_ms;
    Bytes ack;
    if (!send(frame(encode_connect_request(req))) || !recv_frame(&ack)) {
      return 0;
    }
    auto resp = decode_connect_response(ack);
    return resp.is_ok() ? resp.value().session_id : 0;
  }
};

/// Frames of `count` pipelined getData requests for `path`, xids 1..count.
Bytes pipelined_gets(const std::string& path, std::uint64_t count,
                     ReadConsistency consistency, std::uint64_t fence = 0) {
  Bytes batch;
  for (std::uint64_t xid = 1; xid <= count; ++xid) {
    ClientRequest req;
    req.kind = ClientOpKind::kGetData;
    req.path = path;
    req.xid = xid;
    req.consistency = consistency;
    req.fence_zxid = fence;
    const Bytes f = RawConn::frame(encode_client_request(req));
    batch.insert(batch.end(), f.begin(), f.end());
  }
  return batch;
}

TEST(ClientServer, CrudThroughAnyServer) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  RemoteClient client(ClientConfig{.servers = f.endpoints});

  // Create via whichever server the client picked.
  auto created = client.create("/app", to_bytes("hello"));
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  EXPECT_EQ(created.value(), "/app");
  const std::uint64_t created_zxid = client.last_seen_zxid();

  // Read back — possibly from a follower. The default kSession tier fences
  // the read at the create's commit zxid, so even a lagging follower answers
  // with the write (read-your-writes; no retry loop needed).
  auto got = client.get("/app");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().value, to_bytes("hello"));
  EXPECT_GE(got.value().zxid.packed(), created_zxid);

  // Conditional set + stat.
  ASSERT_TRUE(client.set("/app", to_bytes("world"), 0).is_ok());
  auto st = client.stat("/app");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st.value().value.version, 1u);
  EXPECT_EQ(client.set("/app", to_bytes("stale"), 0).status().code(),
            Code::kBadVersion);

  // exists / children / delete.
  EXPECT_TRUE(client.exists("/app").value().value);
  auto kids = client.get_children("/");
  ASSERT_TRUE(kids.is_ok());
  EXPECT_EQ(kids.value().value.size(), 1u);
  ASSERT_TRUE(client.remove("/app").is_ok());
  EXPECT_FALSE(client.exists("/app").value().value);

  f.cluster.stop();
}

TEST(ClientServer, SequentialCreateReturnsFinalPath) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  RemoteClient client(ClientConfig{.servers = f.endpoints});
  ASSERT_TRUE(client.create("/q", {}).is_ok());
  auto a = client.create("/q/n-", to_bytes("1"), /*sequential=*/true);
  auto b = client.create("/q/n-", to_bytes("2"), /*sequential=*/true);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_LT(a.value(), b.value());
  f.cluster.stop();
}

TEST(ClientServer, MultiIsAtomicOverTheWire) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  RemoteClient client(ClientConfig{.servers = f.endpoints});
  ASSERT_TRUE(client.create("/base", {}).is_ok());

  std::vector<Op> good(2);
  good[0].type = OpType::kCreate;
  good[0].path = "/base/x";
  good[1].type = OpType::kCreate;
  good[1].path = "/base/y";
  auto ok = client.multi(good);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value().code, Code::kOk);

  std::vector<Op> bad(2);
  bad[0].type = OpType::kCreate;
  bad[0].path = "/base/z";
  bad[1].type = OpType::kCreate;
  bad[1].path = "/base/x";  // exists
  auto fail = client.multi(bad);
  ASSERT_TRUE(fail.is_ok());
  EXPECT_EQ(fail.value().code, Code::kExists);
  EXPECT_EQ(fail.value().failed_index, 1);
  EXPECT_FALSE(client.exists("/base/z").value().value);  // atomic: no /base/z
  f.cluster.stop();
}

TEST(ClientServer, ClientRotatesAcrossServers) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  // Point the client at each server individually: all must serve writes
  // (followers forward to the primary).
  for (NodeId n = 1; n <= 3; ++n) {
    RemoteClient one(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(n)}}});
    auto r = one.create("/from-server-" + std::to_string(n), to_bytes("x"));
    EXPECT_TRUE(r.is_ok()) << "server " << n << ": " << r.status().to_string();
  }
  // A bad endpoint first in the list: the client must rotate past it.
  std::vector<Endpoint> eps = {{"127.0.0.1", 1}};  // dead port
  eps.insert(eps.end(), f.endpoints.begin(), f.endpoints.end());
  RemoteClient rotating(ClientConfig{.servers = eps, .op_timeout = seconds(10)});
  EXPECT_TRUE(rotating.create("/via-rotation", to_bytes("x")).is_ok());
  f.cluster.stop();
}

TEST(ClientServer, PingReportsLeadership) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  int leaders = 0;
  for (NodeId n = 1; n <= 3; ++n) {
    RemoteClient one(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(n)}}});
    auto r = one.ping_is_leader();
    ASSERT_TRUE(r.is_ok());
    if (r.value()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  f.cluster.stop();
}

TEST(ClientServer, GarbageFrameDoesNotCrashServer) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  // Hand-roll a connection and send junk.
  RemoteClient probe(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(1)}}});
  ASSERT_TRUE(probe.create("/sane", to_bytes("ok")).is_ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(f.cluster.client_port(1));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char junk[] = "\x08\x00\x00\x00GARBAGE!";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, MSG_NOSIGNAL), 0);
  ::close(fd);

  // Server still works.
  EXPECT_TRUE(probe.exists("/sane").value().value);
  f.cluster.stop();
}

TEST(ClientServer, RetiredOpKindsAreRefusedAndTheConnectionServes) {
  // Kinds 7, 8 and 10 once carried monitoring data over the client wire;
  // they are retired, so a server refuses them and keeps the connection.
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  const NodeId n = 1;
  RemoteClient writer(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(n)}}});
  ASSERT_TRUE(writer.create("/kept", to_bytes("v")).is_ok());

  RawConn raw(f.cluster.client_port(n));
  ASSERT_GE(raw.fd, 0);
  ASSERT_NE(raw.handshake(10000), 0u);
  for (const int kind : {7, 8, 10}) {
    ClientRequest retired;
    retired.kind = static_cast<ClientOpKind>(kind);
    retired.xid = 100 + kind;
    ASSERT_TRUE(raw.send(RawConn::frame(encode_client_request(retired))));
    Bytes payload;
    ASSERT_TRUE(raw.recv_frame(&payload)) << "kind " << kind;
    auto resp = decode_client_response(payload);
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().code, Code::kInvalidArgument) << "kind " << kind;

    ASSERT_TRUE(raw.send(pipelined_gets("/kept", 1, ReadConsistency::kSession,
                                        writer.last_seen_zxid())));
    ASSERT_TRUE(raw.recv_frame(&payload)) << "get after kind " << kind;
    auto got = decode_client_response(payload);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().code, Code::kOk) << "get after kind " << kind;
    EXPECT_TRUE(got.value().data == to_bytes("v"));
  }

  // RemoteClient hands the refusal back instead of resending the request.
  ClientRequest retired;
  retired.kind = static_cast<ClientOpKind>(7);
  auto r = writer.call(retired);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().code, Code::kInvalidArgument);
  EXPECT_EQ(writer.stats().replays, 0u);
  f.cluster.stop();
}

TEST(ClientServer, RejectedFramesAreCountedAndTheWarningIsRateLimited) {
  // One client pipelines 1,000 frames of a retired kind: each one is
  // refused and counted, but the server's log gets a WARN at most once a
  // second, not once per frame.
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  const NodeId n = 1;
  // A write through the replica first: it serves sessions once it is synced.
  RemoteClient writer(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(n)}}});
  ASSERT_TRUE(writer.create("/ready", to_bytes("v")).is_ok());
  RawConn raw(f.cluster.client_port(n));
  ASSERT_GE(raw.fd, 0);
  ASSERT_NE(raw.handshake(10000), 0u);
  constexpr int kFrames = 1000;
  Bytes flood;
  for (int i = 1; i <= kFrames; ++i) {
    ClientRequest retired;
    retired.kind = static_cast<ClientOpKind>(7);
    retired.xid = static_cast<std::uint64_t>(i);
    const Bytes fr = RawConn::frame(encode_client_request(retired));
    flood.insert(flood.end(), fr.begin(), fr.end());
  }
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(raw.send(flood));
  int refused = 0;
  for (int i = 0; i < kFrames; ++i) {
    Bytes payload;
    if (!raw.recv_frame(&payload)) break;
    auto resp = decode_client_response(payload);
    if (resp.is_ok() && resp.value().code == Code::kInvalidArgument) ++refused;
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(refused, kFrames);
  EXPECT_EQ(f.cluster.metrics_snapshot(n).counters.at("zab.client.rejected_frames"),
            static_cast<std::uint64_t>(kFrames));
  int warnings = 0;
  for (std::size_t at = err.find("rejecting client frame"); at != std::string::npos;
       at = err.find("rejecting client frame", at + 1)) {
    ++warnings;
  }
  EXPECT_LE(warnings, 2) << err.substr(0, 2000);
  f.cluster.stop();
}

TEST(ClientServer, SlowConsumerIsDisconnectedAtTheCapSessionSurvives) {
  // A raw client pipelines getData of a 1 KiB znode and never reads its
  // answers. Once its kernel buffers and kClientOutCap of queued answers
  // are full, the replica closes the connection (the byte bound itself is
  // FramedConn.OverflowRuleBoundsTheQueue's); another client of the same
  // replica keeps being served, and the session outlives the connection
  // until its lease runs out.
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  const NodeId n = 1;
  RemoteClient other(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(n)}}});
  ASSERT_TRUE(other.create("/blob", Bytes(1024, 'b')).is_ok());

  // A small receive buffer keeps the kernel's share of the backlog small.
  RawConn raw(f.cluster.client_port(n), /*rcvbuf=*/4096);
  ASSERT_GE(raw.fd, 0);
  // The lease outlasts the flood by far, even on a busy host.
  const std::uint64_t sid = raw.handshake(4000);
  ASSERT_NE(sid, 0u);

  // Pipeline reads in batches, each behind a lease-refreshing ping, until
  // the replica gives up on the connection.
  Bytes batch = RawConn::frame(encode_ping_request(PingRequest{sid}));
  const Bytes gets = pipelined_gets("/blob", 256, ReadConsistency::kLocal);
  batch.insert(batch.end(), gets.begin(), gets.end());
  bool closed = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int b = 0; !closed && std::chrono::steady_clock::now() < deadline; ++b) {
    closed = !raw.send(batch);
    if (b % 8 == 0) {
      ASSERT_TRUE(other.get("/blob").is_ok()) << "batch " << b;
    }
  }
  ASSERT_TRUE(closed);
  ASSERT_TRUE(other.get("/blob").is_ok());

  auto alive_everywhere = [&] {
    int alive = 0;
    for (NodeId m = 1; m <= 3; ++m) {
      f.cluster.with_tree(m, [&](ReplicatedTree& t) {
        alive += t.tree().has_session(sid) ? 1 : 0;
      });
    }
    return alive;
  };
  auto wait_for = [&](int want, std::chrono::seconds budget) {
    const auto until = std::chrono::steady_clock::now() + budget;
    while (alive_everywhere() != want && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return alive_everywhere();
  };
  // The disconnect closed no session: every replica holds it (a lagging
  // one catches up), and still does well after the close.
  EXPECT_EQ(wait_for(3, std::chrono::seconds(2)), 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(alive_everywhere(), 3);
  // Only the lease ends it: the primary's expiry clock reaps it everywhere.
  EXPECT_EQ(wait_for(0, std::chrono::seconds(20)), 0);
  f.cluster.stop();
}

TEST(ClientServer, PipelinedAnswersPastTheCapReachAReadingClient) {
  // A client that reads while it pipelines can still be sent answers
  // faster than it drains them: five 1 MiB getData answers overshoot
  // kClientOutCap. The replica flushes to make room before it applies the
  // cap, so a client that reads gets every answer, in order.
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  const NodeId n = 1;
  RemoteClient writer(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(n)}}});
  const Bytes big(1u << 20, 'z');
  ASSERT_TRUE(writer.create("/big", big).is_ok());
  constexpr std::uint64_t kReads = 5;
  ASSERT_GT(kReads * big.size(), kClientOutCap);

  RawConn raw(f.cluster.client_port(n));
  ASSERT_GE(raw.fd, 0);
  ASSERT_NE(raw.handshake(10000), 0u);
  ASSERT_TRUE(raw.send(pipelined_gets("/big", kReads, ReadConsistency::kSession,
                                      writer.last_seen_zxid())));
  for (std::uint64_t xid = 1; xid <= kReads; ++xid) {
    Bytes payload;
    ASSERT_TRUE(raw.recv_frame(&payload)) << "answer " << xid;
    auto resp = decode_client_response(payload);
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().xid, xid);
    EXPECT_EQ(resp.value().code, Code::kOk);
    EXPECT_TRUE(resp.value().data == big);
  }
  f.cluster.stop();
}

TEST(ClientServer, DataWatchPushedOverTheWire) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  RemoteClient watcher(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(1)}}});
  RemoteClient writer(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(2)}}});

  ASSERT_TRUE(writer.create("/watched", to_bytes("v0")).is_ok());
  // sync() fences the watcher past the other client's write before the
  // watch registers — no replication-wait polling.
  ASSERT_TRUE(watcher.sync().is_ok());
  ASSERT_TRUE(watcher.get("/watched", ReadOptions{.watch = true}).is_ok());

  ASSERT_TRUE(writer.set("/watched", to_bytes("v1")).is_ok());
  auto ev = watcher.wait_watch_event(seconds(5));
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  EXPECT_EQ(ev.value().path, "/watched");
  EXPECT_EQ(ev.value().event, WatchEvent::kDataChanged);
  f.cluster.stop();
}

TEST(ClientServer, ExistsWatchFiresOnCreation) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  RemoteClient watcher(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(1)}}});
  RemoteClient writer(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(1)}}});

  auto ex = watcher.exists("/future", ReadOptions{.watch = true});
  ASSERT_TRUE(ex.is_ok());
  EXPECT_FALSE(ex.value().value);

  ASSERT_TRUE(writer.create("/future", to_bytes("now")).is_ok());
  auto ev = watcher.wait_watch_event(seconds(5));
  ASSERT_TRUE(ev.is_ok());
  EXPECT_EQ(ev.value().event, WatchEvent::kNodeCreated);
  EXPECT_EQ(ev.value().path, "/future");
  f.cluster.stop();
}

TEST(ClientServer, ChildWatchFiresOnMembershipChange) {
  ClientServerFixture f;
  ASSERT_TRUE(f.up());
  RemoteClient watcher(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(1)}}});
  RemoteClient writer(ClientConfig{.servers = {{"127.0.0.1", f.cluster.client_port(1)}}});

  ASSERT_TRUE(writer.create("/dir", {}).is_ok());
  auto kids = watcher.get_children("/dir", ReadOptions{.watch = true});
  ASSERT_TRUE(kids.is_ok());
  EXPECT_TRUE(kids.value().value.empty());

  ASSERT_TRUE(writer.create("/dir/kid", {}).is_ok());
  auto ev = watcher.wait_watch_event(seconds(5));
  ASSERT_TRUE(ev.is_ok());
  EXPECT_EQ(ev.value().event, WatchEvent::kChildrenChanged);
  EXPECT_EQ(ev.value().path, "/dir");

  // One-shot: a second change does not fire again.
  ASSERT_TRUE(writer.create("/dir/kid2", {}).is_ok());
  EXPECT_FALSE(watcher.wait_watch_event(millis(300)).is_ok());
  f.cluster.stop();
}

}  // namespace
}  // namespace zab::pb
