// Tests for the real-runtime layer: event-loop env, the socket layer, TCP
// transport, and full threaded ensembles over it, crash and restart
// included.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "harness/runtime_cluster.h"
#include "net/reactor.h"
#include "net/runtime_env.h"
#include "net/tcp_transport.h"
#include "pb/remote_client.h"

namespace zab::net {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool eventually(Pred p, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return p();
}

/// A transport on an ephemeral port, for an env that sends nothing.
std::unique_ptr<TcpTransport> idle_transport() {
  TcpConfig tc;
  tc.id = 1;
  tc.ports[1] = 0;
  auto t = TcpTransport::create(tc);
  EXPECT_TRUE(t.is_ok()) << t.status().to_string();
  return t.is_ok() ? std::move(t).take() : nullptr;
}

TEST(RuntimeEnv, RunsPostedTasksInOrder) {
  auto t = idle_transport();
  ASSERT_NE(t, nullptr);
  RuntimeEnv env(1, 7, *t);
  std::vector<int> order;
  env.start(nullptr);
  for (int i = 0; i < 10; ++i) {
    env.post([&order, i] { order.push_back(i); });
  }
  env.run_sync([] {});
  env.stop();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(RuntimeEnv, TimersFireAndCancel) {
  auto t = idle_transport();
  ASSERT_NE(t, nullptr);
  RuntimeEnv env(1, 7, *t);
  std::atomic<int> fired{0};
  env.start(nullptr);
  env.run_sync([&] {
    env.set_timer(millis(10), [&fired] { fired += 1; });
    const TimerId cancelled =
        env.set_timer(millis(10), [&fired] { fired += 100; });
    env.cancel_timer(cancelled);
  });
  ASSERT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(fired.load(), 1);
  env.stop();
}

TEST(Tcp, ConnectsAndExchangesFrames) {
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;
  auto t1r = TcpTransport::create(c1);
  ASSERT_TRUE(t1r.is_ok()) << t1r.status().to_string();
  auto t1 = std::move(t1r).take();

  TcpConfig c2;
  c2.id = 2;
  c2.ports[2] = 0;
  auto t2r = TcpTransport::create(c2);
  ASSERT_TRUE(t2r.is_ok());
  auto t2 = std::move(t2r).take();

  std::map<NodeId, std::uint16_t> ports{{1, t1->listen_port()},
                                        {2, t2->listen_port()}};
  t1->set_peer_ports(ports);
  t2->set_peer_ports(ports);

  std::atomic<int> got1{0}, got2{0};
  t1->set_handler([&](NodeId from, Bytes p) {
    if (from == 2 && p == to_bytes("pong")) ++got1;
  });
  t2->set_handler([&](NodeId from, Bytes p) {
    if (from == 1 && p == to_bytes("ping")) {
      ++got2;
    }
  });

  t1->send(2, to_bytes("ping"));
  ASSERT_TRUE(eventually([&] { return got2.load() == 1; }));
  t2->send(1, to_bytes("pong"));
  ASSERT_TRUE(eventually([&] { return got1.load() == 1; }));
}

TEST(Tcp, ManyFramesArriveInOrder) {
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;
  auto t1 = std::move(TcpTransport::create(c1)).take();
  TcpConfig c2;
  c2.id = 2;
  c2.ports[2] = 0;
  auto t2 = std::move(TcpTransport::create(c2)).take();
  std::map<NodeId, std::uint16_t> ports{{1, t1->listen_port()},
                                        {2, t2->listen_port()}};
  t1->set_peer_ports(ports);
  t2->set_peer_ports(ports);

  std::mutex mu;
  std::vector<std::uint64_t> received;
  t2->set_handler([&](NodeId, Bytes p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p.data(), 8);
    std::lock_guard<std::mutex> lk(mu);
    received.push_back(v);
  });
  t1->set_handler([](NodeId, Bytes) {});

  constexpr int kN = 2000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    Bytes b(64);
    std::memcpy(b.data(), &i, 8);
    t1->send(2, std::move(b));
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return received.size() == kN;
  }));
  std::lock_guard<std::mutex> lk(mu);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(received[i], i);
}

TEST(Tcp, QueuedBurstDrainsInFewWritevCalls) {
  // Queue a burst before the peer's port is even known: every frame lands in
  // the outgoing frame list. Once the port map arrives, the flush path must
  // hand the whole backlog to the kernel in batched vectored writes — not
  // one syscall per frame.
  MetricsRegistry reg;
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;  // peer 2 intentionally unknown
  c1.reconnect_ms = 10;
  c1.metrics = &reg;
  auto t1 = std::move(TcpTransport::create(c1)).take();
  t1->set_handler([](NodeId, Bytes) {});

  constexpr std::uint64_t kN = 1000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    Bytes b(64);
    std::memcpy(b.data(), &i, 8);
    t1->send(2, std::move(b));
  }

  TcpConfig c2;
  c2.id = 2;
  c2.ports[2] = 0;
  auto t2 = std::move(TcpTransport::create(c2)).take();
  std::mutex mu;
  std::vector<std::uint64_t> received;
  t2->set_handler([&](NodeId, Bytes p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p.data(), 8);
    std::lock_guard<std::mutex> lk(mu);
    received.push_back(v);
  });

  t1->set_peer_ports({{1, t1->listen_port()}, {2, t2->listen_port()}});
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return received.size() == kN;
  }));
  {
    std::lock_guard<std::mutex> lk(mu);
    for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(received[i], i);
  }
  const std::uint64_t writevs = reg.counter("net.tcp.writev_calls").value();
  EXPECT_GE(writevs, 1u);
  // 1000 frames + hello at <=64 iovecs per call is ~16 syscalls; leave slack
  // for short kernel-buffer stalls but rule out one-call-per-frame.
  EXPECT_LE(writevs, 64u);
}

TEST(Tcp, PartialWritesResumeAcrossLargeFrames) {
  // Frames far larger than the socket buffer force partial sendmsg results;
  // the flush must resume mid-frame without corrupting the stream.
  MetricsRegistry reg;
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;
  c1.metrics = &reg;
  auto t1 = std::move(TcpTransport::create(c1)).take();
  TcpConfig c2;
  c2.id = 2;
  c2.ports[2] = 0;
  auto t2 = std::move(TcpTransport::create(c2)).take();
  std::map<NodeId, std::uint16_t> ports{{1, t1->listen_port()},
                                        {2, t2->listen_port()}};
  t1->set_peer_ports(ports);
  t2->set_peer_ports(ports);
  t1->set_handler([](NodeId, Bytes) {});

  std::mutex mu;
  std::vector<Bytes> received;
  t2->set_handler([&](NodeId, Bytes p) {
    std::lock_guard<std::mutex> lk(mu);
    received.push_back(std::move(p));
  });

  constexpr std::size_t kFrame = 2u << 20;  // 2 MiB
  constexpr int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    Bytes b(kFrame);
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = static_cast<std::uint8_t>((j + static_cast<std::size_t>(i)) & 0xff);
    }
    t1->send(2, std::move(b));
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return received.size() == static_cast<std::size_t>(kFrames);
  }));
  std::lock_guard<std::mutex> lk(mu);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)].size(), kFrame);
    for (std::size_t j = 0; j < kFrame; j += 4097) {
      ASSERT_EQ(received[static_cast<std::size_t>(i)][j],
                static_cast<std::uint8_t>((j + static_cast<std::size_t>(i)) &
                                          0xff))
          << "frame " << i << " byte " << j;
    }
  }
  // 6 MiB through a default socket buffer cannot fit in one vectored write.
  EXPECT_GT(reg.counter("net.tcp.writev_calls").value(), 1u);
}

TEST(Tcp, SendAfterShutdownDropsCleanly) {
  MetricsRegistry reg;
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;
  c1.metrics = &reg;
  auto t1 = std::move(TcpTransport::create(c1)).take();
  t1->set_handler([](NodeId, Bytes) {});
  t1->shutdown();
  t1->send(2, to_bytes("into the void"));  // must not crash or enqueue
  EXPECT_EQ(reg.counter("net.tcp.msgs_out").value(), 0u);
}

TEST(Tcp, FramesQueuedBehindAFrameOverTheCapArriveInOrder) {
  // The SNAP sync path: the leader sends a SNAP bigger than the link's
  // output cap (an empty queue takes any frame up to kMaxPeerFrame) and, at
  // once, the sync PROPOSEs and NEWLEADER behind it; heartbeats follow
  // while the SNAP is still being written. The cap counts only what waits
  // behind the first frame, so every frame must arrive intact, in order,
  // and none be dropped.
  MetricsRegistry reg;
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;
  c1.metrics = &reg;
  auto t1 = std::move(TcpTransport::create(c1)).take();
  TcpConfig c2;
  c2.id = 2;
  c2.ports[2] = 0;
  auto t2 = std::move(TcpTransport::create(c2)).take();
  std::map<NodeId, std::uint16_t> ports{{1, t1->listen_port()},
                                        {2, t2->listen_port()}};
  t1->set_peer_ports(ports);
  t2->set_peer_ports(ports);
  t1->set_handler([](NodeId, Bytes) {});
  std::mutex mu;
  std::vector<Bytes> received;
  t2->set_handler([&](NodeId, Bytes p) {
    std::lock_guard<std::mutex> lk(mu);
    received.push_back(std::move(p));
  });

  Bytes big(12u << 20);
  ASSERT_GT(big.size(), kPeerOutCap);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>((i * 7) ^ (i >> 13));
  }
  std::vector<Bytes> sent{big};
  for (int i = 0; i < 8; ++i) sent.push_back(to_bytes("sync-" + std::to_string(i)));
  for (const Bytes& b : sent) t1->send(2, b);
  for (int i = 0; i < 8; ++i) {
    sent.push_back(to_bytes("heartbeat-" + std::to_string(i)));
    t1->send(2, sent.back());
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(eventually(
      [&] {
        std::lock_guard<std::mutex> lk(mu);
        return received.size() >= sent.size();
      },
      10000ms));
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(received[i] == sent[i]) << "frame " << i;
  }
  EXPECT_EQ(reg.counter("net.tcp.send_drops").value(), 0u);
  EXPECT_EQ(reg.counter("net.tcp.conn_breaks").value(), 0u);
}

TEST(Tcp, SlowPeerLinkClosesAtTheCapThenFramesFlowAgain) {
  // A peer that accepts but never reads: once the link's queue would pass
  // kPeerOutCap, the transport drops the link and counts the break and the
  // discarded frames. Once the peer reads, frames flow over a new link.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  socklen_t alen = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);
  timeval tv{5, 0};  // bounds accept() and recv() below
  ::setsockopt(lfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  MetricsRegistry reg;
  TcpConfig c1;
  c1.id = 1;
  c1.ports[1] = 0;
  c1.ports[2] = ntohs(addr.sin_port);
  c1.reconnect_ms = 10;
  c1.metrics = &reg;
  auto t1 = std::move(TcpTransport::create(c1)).take();
  t1->set_handler([](NodeId, Bytes) {});
  const AtomicCounter& breaks = reg.counter("net.tcp.conn_breaks");
  const AtomicCounter& drops = reg.counter("net.tcp.send_drops");

  constexpr std::size_t kFrame = 64u << 10;
  std::size_t sent = 0;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (breaks.value() == 0 && std::chrono::steady_clock::now() < deadline) {
    t1->send(2, Bytes(kFrame, 0xab));
    if (++sent % 32 == 0) std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(breaks.value(), 1u) << "link never closed after " << sent;
  EXPECT_GE(drops.value(), 1u);
  // Closed at the cap, not before: the peer's kernel buffers plus the
  // link's queue had taken at least the cap.
  EXPECT_GE(sent * (kFrame + 4), kPeerOutCap);

  // The stalled connection is dropped; frames sent from now on arrive over
  // a fresh one, behind its hello.
  const int stalled = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(stalled, 0);
  ::close(stalled);
  std::atomic<bool> seen{false};
  std::thread peer([&] {
    std::vector<std::uint8_t> in;
    while (!seen) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) return;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      in.clear();
      std::uint8_t buf[65536];
      for (ssize_t n; !seen && (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
        in.insert(in.end(), buf, buf + n);
        std::size_t pos = 8;  // hello
        while (in.size() >= pos + 4) {
          std::uint32_t len = 0;
          std::memcpy(&len, in.data() + pos, 4);
          if (in.size() < pos + 4 + len) break;
          if (len == 5 && std::memcmp(in.data() + pos + 4, "after", 5) == 0) {
            seen = true;
          }
          pos += 4 + len;
        }
      }
      ::close(fd);
    }
  });
  EXPECT_TRUE(eventually([&] {
    t1->send(2, to_bytes("after"));
    return seen.load();
  }));
  seen = true;
  t1->shutdown();
  peer.join();
  ::close(lfd);
}

TEST(FramedConn, OverflowRuleBoundsTheQueue) {
  // An empty queue takes any frame up to the frame limit; behind the first
  // frame, queued bytes stay within the cap. Before attach() push() has no
  // socket to flush to, so it refuses at once.
  constexpr std::size_t kMax = 256u << 10;
  constexpr std::size_t kCap = 64u << 10;
  Reactor reactor;  // registration only; never started
  FramedConn conn(kMax, kCap);
  EXPECT_EQ(conn.push(Bytes(kMax + 1)), -1);  // over the frame limit
  ASSERT_EQ(conn.push(Bytes(kMax)), 0);       // empty queue: over the cap
  ASSERT_EQ(conn.push(Bytes(kCap - 8)), 0);   // behind it, kCap - 4 bytes
  ASSERT_EQ(conn.push(Bytes()), 0);           // exactly the cap
  EXPECT_EQ(conn.push(Bytes()), -1);          // past it
  EXPECT_EQ(conn.queued_bytes(), kMax + 4 + kCap);
  EXPECT_EQ(conn.close(), 3u);  // the unwritten frames are dropped
  EXPECT_EQ(conn.queued_bytes(), 0u);

  // The raw preamble attach() puts ahead of the first frame (the peer
  // hello) does not count against the cap either.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  ASSERT_EQ(conn.push(Bytes(kMax)), 0);
  ASSERT_TRUE(conn.attach(sv[0], reactor, [](std::uint32_t) {}, Bytes(8)));
  EXPECT_EQ(conn.push(Bytes(kCap - 4)), 0);  // fits without a flush
  conn.close();
  ::close(sv[1]);

  // Against a peer that never reads, push() flushes to make room until the
  // kernel's buffer is full as well, and the queue never holds more than
  // its first frame plus the cap.
  FramedConn link(kMax, kCap);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  ASSERT_TRUE(link.attach(sv[0], reactor, [](std::uint32_t) {}));
  std::size_t pushed = 0;
  std::size_t peak = 0;
  int calls = 0;
  while (pushed < (64u << 20) && (calls = link.push(Bytes(1024))) >= 0) {
    pushed += 1028;
    peak = std::max(peak, link.queued_bytes());
  }
  EXPECT_EQ(calls, -1);  // refused only once the socket took no more
  EXPECT_LE(peak, 1028 + kCap);
  EXPECT_GT(pushed, 1028 + kCap);  // the socket holds the rest
  std::size_t got = 0;
  std::uint8_t buf[65536];
  for (ssize_t n; (n = ::recv(sv[1], buf, sizeof(buf), 0)) > 0;) {
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(got + link.queued_bytes(), pushed);
  link.close();
  ::close(sv[1]);
}

TEST(Reactor, CoalescedWakesLoseNoHandOff) {
  // Producers append under a lock and call wake(); the IO thread drains on
  // wake. However the wakes coalesce, every item must be drained.
  std::mutex mu;
  std::vector<int> queued;
  std::atomic<int> drained{0};
  Reactor reactor([&] {
    std::vector<int> batch;
    {
      std::lock_guard<std::mutex> lk(mu);
      batch.swap(queued);
    }
    drained += static_cast<int>(batch.size());
  });
  ASSERT_TRUE(reactor.start().is_ok());
  constexpr int kPerThread = 20000;
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        {
          std::lock_guard<std::mutex> lk(mu);
          queued.push_back(i);
        }
        reactor.wake();
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_TRUE(eventually([&] { return drained.load() == 3 * kPerThread; }));
  reactor.stop();
}

TEST(Reactor, BurstOfWakesWritesTheEventfdOnce) {
  // While the IO thread has not drained a wake, more wake() calls write
  // nothing: a burst costs the calling thread one write syscall, as the
  // kernel's per-thread IO accounting counts it.
  if (!std::ifstream("/proc/thread-self/io")) {
    GTEST_SKIP() << "no per-thread IO accounting";
  }
  auto write_syscalls = [] {
    std::ifstream io("/proc/thread-self/io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value) {
      if (key == "syscw:") return value;
    }
    return std::uint64_t{0};
  };
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> drains{0};
  Reactor reactor([&] {
    ++drains;
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  });
  ASSERT_TRUE(reactor.start().is_ok());
  reactor.wake();
  ASSERT_TRUE(eventually([&] { return drains.load() == 1; }));
  // The IO thread is inside on_wake: the burst below is not drained yet.
  // Under ASan, reading the accounting file can count a write syscall of
  // its own the first times it runs: a warm-up read keeps that out of the
  // measured window.
  (void)write_syscalls();
  const std::uint64_t before = write_syscalls();
  for (int i = 0; i < 1000; ++i) reactor.wake();
  EXPECT_EQ(write_syscalls() - before, 1u);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(eventually([&] { return drains.load() == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(drains.load(), 2);  // the whole burst took one more drain
  reactor.stop();
}

TEST(RuntimeCluster, TcpEnsembleElectsAndReplicates) {
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  const NodeId l = c.wait_for_leader(seconds(20));
  ASSERT_NE(l, kNoNode);

  std::atomic<int> completed{0};
  for (int i = 0; i < 20; ++i) {
    c.with_tree(l, [&, i](pb::ReplicatedTree& tree) {
      tree.create("/tcp" + std::to_string(i), to_bytes("x"),
                  [&](const pb::OpResult& r) {
                    if (r.status.is_ok()) ++completed;
                  });
    });
  }
  ASSERT_TRUE(eventually([&] { return completed.load() == 20; }));

  for (NodeId n = 1; n <= 3; ++n) {
    ASSERT_TRUE(eventually([&] {
      bool has = false;
      c.with_tree(n, [&](pb::ReplicatedTree& t) { has = t.exists("/tcp19"); });
      return has;
    })) << "node " << n;
  }
  c.stop();
}

TEST(RuntimeCluster, TcpSnapSyncOfATreeOverTheLinkCap) {
  // A follower that falls behind the leader's snapshot catches up by SNAP:
  // one frame carrying the whole tree, here larger than a link's output
  // cap, queued together with the sync PROPOSEs and NEWLEADER behind it.
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.with_client_service = true;
  constexpr int kBlobs = 14;  // 1 MiB each
  cfg.node.snapshot_every = kBlobs + 1;  // with the client's session txn
  cfg.node.log_retain = 2;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  const NodeId first = c.wait_for_leader(seconds(20));
  ASSERT_NE(first, kNoNode);
  const NodeId lag = first == 3 ? 2 : 3;
  c.mute_node(lag);

  // The session and the 1 MiB znodes reach a snapshot; two small writes
  // follow it in the log. The SNAP is well over the cap plus what the
  // socket buffers take, so the frames behind it find most of it unwritten.
  // The client retries across a leader change, which a slow (sanitizer)
  // build can cause while one follower is muted.
  pb::ClientConfig cc;
  cc.op_timeout = seconds(30);
  for (NodeId n = 1; n <= 3; ++n) {
    if (n != lag) cc.servers.push_back({"127.0.0.1", c.client_port(n)});
  }
  pb::RemoteClient writer(cc);
  const Bytes blob(1u << 20, 0x5a);
  ASSERT_GT(kBlobs * blob.size(), kPeerOutCap);
  for (int i = 0; i < kBlobs + 2; ++i) {
    const std::string path = "/b" + std::to_string(i);
    auto r = writer.create(path, i < kBlobs ? blob : to_bytes("x"));
    ASSERT_TRUE(r.is_ok()) << path << ": " << r.status().to_string();
  }
  const NodeId l = c.wait_for_leader(seconds(20));
  ASSERT_NE(l, lag);
  std::uint64_t snapshots = 0;
  c.with_node(l, [&](ZabNode& n) {
    snapshots = n.metrics().counter("zab.node.snapshots_taken").value();
  });
  ASSERT_GE(snapshots, 1u);

  const std::uint64_t drops =
      c.metrics_snapshot(l).counters["net.tcp.send_drops"];
  c.unmute_node(lag);
  ASSERT_TRUE(eventually(
      [&] {
        return c.view(lag).last_delivered == c.view(l).last_delivered;
      },
      30000ms));
  bool synced = false;
  c.with_tree(lag, [&](pb::ReplicatedTree& t) {
    auto v = t.get("/b" + std::to_string(kBlobs - 1));
    synced = v.is_ok() && v.value().value == blob &&
             t.exists("/b" + std::to_string(kBlobs + 1));
  });
  EXPECT_TRUE(synced);
  EXPECT_EQ(c.metrics_snapshot(l).counters["net.tcp.send_drops"], drops);
  c.stop();
}

TEST(RuntimeCluster, FileBackedStateSurvivesRestart) {
  const std::string dir = ::testing::TempDir() + "/zab_rt_restart";
  (void)storage::remove_dir_recursive(dir);
  Zxid frontier;
  {
    harness::RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.storage_dir = dir;
    harness::RuntimeCluster c(cfg);
    ASSERT_TRUE(c.start().is_ok());
    const NodeId l = c.wait_for_leader();
    ASSERT_NE(l, kNoNode);
    std::atomic<bool> done{false};
    c.with_tree(l, [&](pb::ReplicatedTree& tree) {
      tree.create("/durable", to_bytes("gold"), [&](const pb::OpResult& r) {
        ASSERT_TRUE(r.status.is_ok());
        done = true;
      });
    });
    ASSERT_TRUE(eventually([&] { return done.load(); }));
    frontier = c.view(l).last_delivered;
    c.stop();
  }
  {
    harness::RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.storage_dir = dir;
    harness::RuntimeCluster c(cfg);
    ASSERT_TRUE(c.start().is_ok());
    const NodeId l = c.wait_for_leader();
    ASSERT_NE(l, kNoNode);
    // The recovered ensemble still has the znode.
    ASSERT_TRUE(eventually([&] {
      bool has = false;
      c.with_tree(l, [&](pb::ReplicatedTree& t) { has = t.exists("/durable"); });
      return has;
    }));
    bool value_ok = false;
    c.with_tree(l, [&](pb::ReplicatedTree& t) {
      auto v = t.get("/durable");
      value_ok = v.is_ok() && v.value().value == to_bytes("gold");
    });
    EXPECT_TRUE(value_ok);
    c.stop();
  }
}

TEST(RuntimeCluster, GroupCommitEnsembleReplicatesAndRestarts) {
  // End-to-end over the async durability pipeline: fsync on, group commit
  // on, durability callbacks posted back to each node's loop. The protocol's
  // ACK-after-durable discipline and pending_appends_ accounting must hold.
  const std::string dir = ::testing::TempDir() + "/zab_rt_gc";
  (void)storage::remove_dir_recursive(dir);
  {
    harness::RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.storage_dir = dir;
    cfg.fsync = true;
    cfg.group_commit = true;
    harness::RuntimeCluster c(cfg);
    ASSERT_TRUE(c.start().is_ok());
    const NodeId l = c.wait_for_leader(seconds(20));
    ASSERT_NE(l, kNoNode);

    std::atomic<int> completed{0};
    constexpr int kWrites = 50;
    for (int i = 0; i < kWrites; ++i) {
      c.with_tree(l, [&, i](pb::ReplicatedTree& tree) {
        tree.create("/gc" + std::to_string(i), to_bytes("v"),
                    [&](const pb::OpResult& r) {
                      if (r.status.is_ok()) ++completed;
                    });
      });
    }
    ASSERT_TRUE(eventually([&] { return completed.load() == kWrites; }));

    // The WAL ran through the pipeline: forces happened, and never more
    // than one per append. (Batch sizes here depend on timing; the
    // deterministic grouping assertions live in the storage tests.)
    const MetricsSnapshot snap = c.metrics_snapshot(l);
    const auto fsyncs = snap.counters.find("storage.fsyncs");
    const auto appends = snap.counters.find("storage.append_ops");
    ASSERT_NE(appends, snap.counters.end());
    ASSERT_NE(fsyncs, snap.counters.end());
    EXPECT_GE(appends->second, static_cast<std::uint64_t>(kWrites));
    EXPECT_GE(fsyncs->second, 1u);
    EXPECT_LE(fsyncs->second, appends->second);
    c.stop();
  }
  {
    harness::RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.storage_dir = dir;
    cfg.fsync = true;
    cfg.group_commit = true;
    harness::RuntimeCluster c(cfg);
    ASSERT_TRUE(c.start().is_ok());
    const NodeId l = c.wait_for_leader(seconds(20));
    ASSERT_NE(l, kNoNode);
    ASSERT_TRUE(eventually([&] {
      bool has = false;
      c.with_tree(l, [&](pb::ReplicatedTree& t) { has = t.exists("/gc49"); });
      return has;
    }));
    c.stop();
  }
  (void)storage::remove_dir_recursive(dir);
}

/// Create `prefix`0 .. `prefix`(n-1) through node `at`; true once every
/// create has committed.
bool create_all(harness::RuntimeCluster& c, NodeId at,
                const std::string& prefix, int n) {
  auto ok = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < n; ++i) {
    c.with_tree(at, [&, ok, i](pb::ReplicatedTree& t) {
      t.create(prefix + std::to_string(i), to_bytes("v"),
               [ok](const pb::OpResult& r) {
                 if (r.status.is_ok()) ++*ok;
               });
    });
  }
  return eventually([&] { return ok->load() == n; }, 20000ms);
}

/// Every znode `prefix`0 .. `prefix`(n-1) exists on node `id`.
bool has_all(harness::RuntimeCluster& c, NodeId id, const std::string& prefix,
             int n) {
  bool all = true;
  c.with_tree(id, [&](pb::ReplicatedTree& t) {
    for (int i = 0; i < n; ++i) {
      all = all && t.exists(prefix + std::to_string(i));
    }
  });
  return all;
}

harness::RuntimeClusterConfig durable_cluster(const std::string& dir) {
  (void)storage::remove_dir_recursive(dir);
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.storage_dir = dir;
  cfg.fsync = true;
  cfg.group_commit = true;
  return cfg;
}

TEST(RuntimeCluster, RuntimeThreadsAreNamed) {
  // Every thread a replica runs carries its name: one loop, one peer
  // reactor and one client reactor per node, plus one admin reactor and one
  // log-sync thread per node, which do not know their node id.
  const std::string dir = ::testing::TempDir() + "/zab_rt_names";
  (void)storage::remove_dir_recursive(dir);
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.storage_dir = dir;
  cfg.fsync = true;
  cfg.group_commit = true;
  cfg.with_admin = true;
  cfg.with_client_service = true;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  std::map<std::string, int> names;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) ++names[name];
  }
  std::map<std::string, int> want{{"zab-admin", 3}, {"zab-log", 3}};
  for (const char* owner : {"zab-loop-", "zab-net-", "zab-cli-"}) {
    for (int id = 1; id <= 3; ++id) want[owner + std::to_string(id)] = 1;
  }
  for (const auto& [name, count] : want) EXPECT_EQ(names[name], count) << name;
  c.stop();
  (void)storage::remove_dir_recursive(dir);
}

TEST(RuntimeCluster, FailedStartTearsDownWhatItBuilt) {
  // Node 2's port is taken: start() fails after building node 1's slot,
  // whose loop never ran, and stop() must still tear that slot down.
  auto taken = idle_transport();
  ASSERT_NE(taken, nullptr);
  harness::RuntimeClusterConfig cfg;
  cfg.base_port = static_cast<std::uint16_t>(taken->listen_port() - 2);
  harness::RuntimeCluster c(cfg);
  EXPECT_FALSE(c.start().is_ok());
  c.stop();
}

TEST(RuntimeCluster, CrashedFollowerRestartsAndCatchesUp) {
  {
    // A voter that restarts from empty memory has forgotten what it acked.
    harness::RuntimeCluster mem(harness::RuntimeClusterConfig{});
    ASSERT_TRUE(mem.start().is_ok());
    EXPECT_EQ(mem.crash(2).code(), Code::kInvalidArgument);
    mem.stop();
  }
  const std::string dir = ::testing::TempDir() + "/zab_rt_crash_follower";
  harness::RuntimeCluster c(durable_cluster(dir));
  ASSERT_TRUE(c.start().is_ok());
  const NodeId l = c.wait_for_leader(seconds(20));
  ASSERT_NE(l, kNoNode);
  const NodeId f = l == 3 ? 2 : 3;
  ASSERT_TRUE(create_all(c, l, "/pre", 5));

  // The leader and the other follower still form a quorum.
  ASSERT_TRUE(c.crash(f).is_ok());
  EXPECT_FALSE(c.restart(l).is_ok());  // only a crashed server restarts
  ASSERT_TRUE(create_all(c, l, "/down", 20));

  // The restarted follower reopens its log, binds a new port that the
  // others learn, and syncs the writes it missed.
  ASSERT_TRUE(c.restart(f).is_ok());
  ASSERT_TRUE(eventually(
      [&] { return c.view(f).last_delivered == c.view(l).last_delivered; },
      20000ms));
  EXPECT_EQ(c.view(f).role, Role::kFollowing);
  EXPECT_TRUE(has_all(c, f, "/pre", 5));
  EXPECT_TRUE(has_all(c, f, "/down", 20));
  c.stop();
  (void)storage::remove_dir_recursive(dir);
}

TEST(RuntimeCluster, CrashedLeaderRestartsAndRejoins) {
  const std::string dir = ::testing::TempDir() + "/zab_rt_crash_leader";
  harness::RuntimeCluster c(durable_cluster(dir));
  ASSERT_TRUE(c.start().is_ok());
  const NodeId old = c.wait_for_leader(seconds(20));
  ASSERT_NE(old, kNoNode);
  ASSERT_TRUE(create_all(c, old, "/a", 10));

  // The other two elect a leader among themselves and keep committing.
  ASSERT_TRUE(c.crash(old).is_ok());
  const NodeId l = c.wait_for_leader(seconds(20));
  ASSERT_NE(l, kNoNode);
  ASSERT_NE(l, old);
  ASSERT_TRUE(create_all(c, l, "/b", 10));

  // The old leader comes back as a follower of the new epoch and catches
  // up: every acknowledged write is on all three nodes.
  ASSERT_TRUE(c.restart(old).is_ok());
  ASSERT_TRUE(eventually(
      [&] {
        const auto v = c.view(old);
        return v.role == Role::kFollowing &&
               v.last_delivered == c.view(l).last_delivered;
      },
      20000ms));
  EXPECT_EQ(c.wait_for_leader(), l);
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(has_all(c, n, "/a", 10)) << "node " << n;
    EXPECT_TRUE(has_all(c, n, "/b", 10)) << "node " << n;
  }
  c.stop();
  (void)storage::remove_dir_recursive(dir);
}

}  // namespace
}  // namespace zab::net
