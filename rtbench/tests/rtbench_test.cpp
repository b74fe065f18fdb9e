// Unit tests of the benchmark's own parts: percentile maths, the
// generator's frame codec, handshake and xid matching, and the correctness
// checker (which must reject a lost write, a stale read and a divergent
// replica).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <numeric>

#include "checker.h"
#include "gen_conn.h"
#include "stats.h"

namespace rtbench {
namespace {

using zab::pb::ClientOpKind;
using zab::pb::ClientRequest;
using zab::pb::ClientResponse;

// --- percentiles ----------------------------------------------------------

TEST(RtbenchStats, NearestRankPercentiles) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  std::vector<double> four{4, 1, 3, 2};
  EXPECT_EQ(percentile(four, 0.5), 2.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.99), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

// --- generator codec, handshake, xid matching ----------------------------

struct SocketPair {
  int gen = -1;
  int server = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    gen = fds[0];
    server = fds[1];
  }
  ~SocketPair() {
    if (server >= 0) ::close(server);
  }
  void server_send(const zab::Bytes& payload) const {
    std::vector<std::uint8_t> framed;
    append_frame(framed, payload);
    ASSERT_EQ(::write(server, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }
  // Reads every frame the generator has sent so far.
  std::vector<zab::Bytes> server_frames() const {
    FrameReader r;
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(server, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) r.feed(buf, static_cast<std::size_t>(n));
    std::vector<zab::Bytes> out;
    while (auto f = r.next()) out.push_back(*f);
    return out;
  }
};

TEST(RtbenchGenConn, FrameCodecSplitsAnyByteBoundary) {
  std::vector<std::uint8_t> wire;
  const zab::Bytes a{1, 2, 3};
  const zab::Bytes b(300, 7);
  append_frame(wire, a);
  append_frame(wire, b);
  ASSERT_EQ(wire.size(), 4 + 3 + 4 + 300u);
  EXPECT_EQ(wire[0], 3);  // little-endian length, as the server expects
  FrameReader r;
  std::vector<zab::Bytes> got;
  for (std::uint8_t byte : wire) {
    r.feed(&byte, 1);
    while (auto f = r.next()) got.push_back(*f);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);

  FrameReader bad;
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  bad.feed(huge, 4);
  EXPECT_FALSE(bad.next().has_value());
  EXPECT_TRUE(bad.broken());
}

TEST(RtbenchGenConn, HandshakeRetriesNotReadyThenOpensSession) {
  SocketPair sp;
  GenConn conn(sp.gen);
  zab::pb::ConnectResponse not_ready;
  not_ready.code = zab::Code::kNotReady;
  zab::pb::ConnectResponse ok;
  ok.session_id = 77;
  ok.last_zxid = (5ull << 32) | 9;
  sp.server_send(zab::pb::encode_connect_response(not_ready));
  sp.server_send(zab::pb::encode_connect_response(ok));
  ASSERT_TRUE(conn.handshake(30'000, now_ns() + 2'000'000'000).is_ok());
  EXPECT_EQ(conn.session_id(), 77u);
  EXPECT_EQ(conn.fence(), ok.last_zxid);
  const auto frames = sp.server_frames();
  ASSERT_EQ(frames.size(), 2u);  // the first attempt and its retry
  auto req = zab::pb::decode_connect_request(frames[0]);
  ASSERT_TRUE(req.is_ok());
  EXPECT_EQ(req.value().session_id, 0u);
  EXPECT_EQ(req.value().timeout_ms, 30'000u);
}

TEST(RtbenchGenConn, HandshakeTimesOutWithoutAnswer) {
  SocketPair sp;
  GenConn conn(sp.gen);
  EXPECT_EQ(conn.handshake(1000, now_ns() + 50'000'000).code(),
            zab::Code::kTimeout);
}

TEST(RtbenchGenConn, MatchesOutOfOrderRepliesByXid) {
  SocketPair sp;
  GenConn conn(sp.gen);
  ClientRequest w;
  w.kind = ClientOpKind::kWrite;
  zab::pb::Op op;
  op.type = zab::pb::OpType::kSetData;
  op.path = "/k00001";
  op.data = {1, 2, 3};
  w.ops.push_back(op);
  Pending pw;
  pw.is_write = true;
  pw.key = 1;
  pw.seq = 1;
  const std::uint64_t xw = conn.queue(w, pw);
  ClientRequest r;
  r.kind = ClientOpKind::kGetData;
  r.path = "/k00002";
  Pending pr;
  pr.key = 2;
  const std::uint64_t xr = conn.queue(r, pr);
  ASSERT_NE(xw, xr);
  ASSERT_TRUE(conn.flush(123));
  EXPECT_FALSE(conn.wants_write());
  EXPECT_EQ(conn.outstanding(), 2u);

  // The server saw both requests with the xids the generator assigned.
  const auto frames = sp.server_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(zab::pb::decode_client_request(frames[0]).value().xid, xw);
  EXPECT_EQ(zab::pb::decode_client_request(frames[1]).value().xid, xr);

  // Replies come back read first, write second, in one read.
  ClientResponse rr;
  rr.xid = xr;
  rr.zxid = zab::Zxid(1, 4);
  ClientResponse rw;
  rw.xid = xw;
  rw.zxid = zab::Zxid(1, 7);
  std::vector<std::uint8_t> wire;
  append_frame(wire, zab::pb::encode_client_response(rr));
  append_frame(wire, zab::pb::encode_client_response(rw));
  std::vector<Completion> done;
  // Split mid-frame: the first call only completes the read.
  ASSERT_TRUE(conn.on_bytes(wire.data(), 20, 500, done));
  EXPECT_TRUE(done.empty());
  ASSERT_TRUE(conn.on_bytes(wire.data() + 20, wire.size() - 20, 500, done));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].xid, xr);
  EXPECT_FALSE(done[0].req.is_write);
  EXPECT_EQ(done[0].req.key, 2u);
  EXPECT_EQ(done[1].xid, xw);
  EXPECT_TRUE(done[1].req.is_write);
  EXPECT_EQ(done[1].req.sent_ns, 123);
  EXPECT_EQ(done[1].recv_ns, 500);
  EXPECT_EQ(conn.outstanding(), 0u);
  EXPECT_EQ(conn.fence(), zab::Zxid(1, 7).packed());

  // A reply nobody asked for breaks the connection.
  ClientResponse stray;
  stray.xid = 999;
  std::vector<std::uint8_t> w2;
  append_frame(w2, zab::pb::encode_client_response(stray));
  EXPECT_FALSE(conn.on_bytes(w2.data(), w2.size(), 600, done));
}

// --- correctness checker ---------------------------------------------------

constexpr std::uint64_t Z(std::uint32_t c) { return (1ull << 32) | c; }

// Preloads keys 0..1 and acknowledges one write per connection.
Checker clean_history() {
  Checker c(2, 2);
  c.on_write_ack(0, ValueTag{ValueTag::kPreload, 0, 0}, Z(1));
  c.on_write_ack(1, ValueTag{ValueTag::kPreload, 0, 1}, Z(2));
  c.on_write_sent(0, 1, 0);
  c.on_write_ack(0, ValueTag{0, 1, 0}, Z(3));
  c.on_write_sent(1, 1, 1);
  c.on_write_ack(1, ValueTag{1, 1, 1}, Z(4));
  return c;
}

void final_state(Checker& c, std::uint64_t wm1, const ValueTag& k0_on_1) {
  const auto v0 = make_value(ValueTag{0, 1, 0}, 64);
  const auto v1 = make_value(ValueTag{1, 1, 1}, 64);
  const auto v0_r1 = make_value(k0_on_1, 64);
  c.on_replica_watermark(0, Z(4));
  c.on_replica_watermark(1, wm1);
  c.on_replica_value(0, 0, std::span<const std::uint8_t>(v0));
  c.on_replica_value(0, 1, std::span<const std::uint8_t>(v1));
  c.on_replica_value(1, 0, std::span<const std::uint8_t>(v0_r1));
  c.on_replica_value(1, 1, std::span<const std::uint8_t>(v1));
  c.finish();
}

TEST(RtbenchChecker, ValuesRoundTripAndRejectTearing) {
  const ValueTag t{2, 41, 7};
  auto v = make_value(t, 128);
  ASSERT_EQ(v.size(), 128u);
  ASSERT_TRUE(parse_value(v).has_value());
  EXPECT_EQ(*parse_value(v), t);
  v[100] ^= 1;
  EXPECT_FALSE(parse_value(v).has_value());
  const ValueTag p{ValueTag::kPreload, 0, 3};
  EXPECT_EQ(*parse_value(make_value(p, 1024)), p);
  EXPECT_EQ(key_path(42), "/k00042");
}

TEST(RtbenchChecker, AcceptsACleanHistory) {
  Checker c = clean_history();
  const auto v = make_value(ValueTag{0, 1, 0}, 64);
  c.on_read(1, 0, Z(2), Z(3), v);
  final_state(c, Z(4), ValueTag{0, 1, 0});
  EXPECT_TRUE(c.ok()) << (c.errors().empty() ? "" : c.errors()[0]);
}

TEST(RtbenchChecker, RejectsLostWrite) {
  Checker c = clean_history();
  // Replica 1 still holds the preload value of key 0: the acknowledged
  // write (0#1 at zxid 3) is lost there.
  final_state(c, Z(4), ValueTag{ValueTag::kPreload, 0, 0});
  EXPECT_FALSE(c.ok());
}

TEST(RtbenchChecker, RejectsStaleRead) {
  Checker c = clean_history();
  const auto v = make_value(ValueTag{ValueTag::kPreload, 0, 0}, 64);
  c.on_read(0, 0, /*fence=*/Z(3), /*zxid=*/Z(2), v);  // answered below fence
  EXPECT_FALSE(c.ok());
}

TEST(RtbenchChecker, RejectsReadOfValueNeverWritten) {
  Checker c = clean_history();
  const auto v = make_value(ValueTag{1, 9, 0}, 64);  // 1#9 was never sent
  c.on_read(0, 0, Z(1), Z(4), v);
  EXPECT_FALSE(c.ok());
  Checker d = clean_history();
  const auto other = make_value(ValueTag{1, 1, 1}, 64);  // key 1's value
  d.on_read(0, 0, Z(1), Z(4), other);
  EXPECT_FALSE(d.ok());
}

TEST(RtbenchChecker, RejectsDivergentReplica) {
  Checker c = clean_history();
  final_state(c, /*replica 1 watermark=*/Z(3), ValueTag{0, 1, 0});
  EXPECT_FALSE(c.ok());
}

TEST(RtbenchChecker, RejectsOutOfOrderAcks) {
  Checker c = clean_history();
  c.on_write_sent(0, 2, 1);
  c.on_write_ack(0, ValueTag{0, 2, 1}, Z(2));  // below conn 0's ack at 3
  EXPECT_FALSE(c.ok());
}

}  // namespace
}  // namespace rtbench
