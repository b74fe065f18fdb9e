// Out-of-band admin plane + crash flight recorder.
//
// Layers covered:
//   - common/flight_recorder.h: fatal-signal dump (fork + SIGABRT),
//     SIGTERM chaining, publish/dump round-trip, slot exhaustion
//   - net/admin_server.h HTTP parser units: partial reads, pipelining,
//     malformed and oversized requests, query split
//   - AdminServer::handle routing: /healthz /readyz /metrics /status
//     /tracez, 404, 405, stale marking
//   - MetricsSnapshot::to_prometheus + the shared quantile scheme
//     round-tripping across text/JSON/Prometheus expositions
//   - AdminServer over real sockets, with a live and a wedged collector
//   - collect_admin_snapshot renders only the requested target; the
//     /tracez reader reads back what /tracez writes
//   - RuntimeCluster integration: scrape all nodes, /readyz flips 503->200
//     across a partition, /tracez after a committed write, SIGTERM leaves
//     a parseable post-mortem bundle on disk
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/flight_recorder.h"
#include "common/metrics_registry.h"
#include "harness/runtime_cluster.h"
#include "harness/sim_cluster.h"
#include "net/admin_server.h"
#include "pb/admin_status.h"
#include "pb/replicated_tree.h"

namespace zab {
namespace {

using namespace std::chrono_literals;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size();
    if (nl > pos) out.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

// --- Minimal JSON validity checker -------------------------------------------
// The repo's json.h is write-only by design; the tests need just enough of a
// reader to assert that every emitted document (status bodies, post-mortem
// bundles) is structurally valid JSON.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return p_ == end_;
  }

 private:
  void ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end_ - p_) < n || std::strncmp(p_, s, n) != 0) return false;
    p_ += n;
    return true;
  }
  bool string() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    return p_ > start;
  }
  bool value() {
    ws();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': {
        ++p_;
        ws();
        if (p_ < end_ && *p_ == '}') { ++p_; return true; }
        while (true) {
          ws();
          if (!string()) return false;
          ws();
          if (p_ >= end_ || *p_ != ':') return false;
          ++p_;
          if (!value()) return false;
          ws();
          if (p_ < end_ && *p_ == ',') { ++p_; continue; }
          break;
        }
        if (p_ >= end_ || *p_ != '}') return false;
        ++p_;
        return true;
      }
      case '[': {
        ++p_;
        ws();
        if (p_ < end_ && *p_ == ']') { ++p_; return true; }
        while (true) {
          if (!value()) return false;
          ws();
          if (p_ < end_ && *p_ == ',') { ++p_; continue; }
          break;
        }
        if (p_ >= end_ || *p_ != ']') return false;
        ++p_;
        return true;
      }
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }

  const char* p_;
  const char* end_;
};

bool json_valid(const std::string& s) { return JsonChecker(s).valid(); }

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid(R"({"a":[1,2,{"b":"x\"y"}],"c":true,"d":-1.5e3})"));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid(R"({"a":})"));
  EXPECT_FALSE(json_valid("{} trailing"));
}

// --- Flight recorder ----------------------------------------------------------
// The fork test runs before anything in this binary spawns threads (gtest
// runs tests in declaration order within a file): fork() from a
// single-threaded parent is safe under both sanitizers.

TEST(FlightRecorder, FatalSignalLeavesParseableBundle) {
  const std::string path =
      ::testing::TempDir() + "zab_postmortem_abort.json";
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: publish a bundle, install handlers, die on SIGABRT.
    FlightRecorder rec;
    rec.set_path(path);
    const int slot = rec.register_slot();
    rec.publish(slot, R"({"status":"doomed","pipeline":{"depth":3}})");
    rec.install();
    std::abort();
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  // The handler re-raises with default disposition: the child still dies
  // by SIGABRT — the dump must not swallow the crash.
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);

  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty()) << "no post-mortem file at " << path;
  const auto lines = lines_of(dump);
  ASSERT_GE(lines.size(), 2u) << dump;
  EXPECT_NE(lines[0].find("\"event\":\"postmortem\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"signal\":6"), std::string::npos);
  EXPECT_NE(lines[0].find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"doomed\""), std::string::npos);
  for (const auto& l : lines) EXPECT_TRUE(json_valid(l)) << l;
  std::remove(path.c_str());
}

TEST(FlightRecorder, PublishDumpRoundTripAndSlotExhaustion) {
  const std::string path =
      ::testing::TempDir() + "zab_postmortem_manual.json";
  std::remove(path.c_str());

  FlightRecorder rec;
  rec.set_path(path);
  const int a = rec.register_slot();
  const int b = rec.register_slot();
  ASSERT_EQ(a, 0);
  ASSERT_EQ(b, 1);
  rec.publish(a, R"({"node":1})");
  rec.publish(b, R"({"node":2})");
  rec.publish(a, R"({"node":1,"fresher":true})");  // double-buffer flip

  rec.dump_now("test");
  EXPECT_EQ(rec.dump_count(), 1u);
  const auto lines = lines_of(read_file(path));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"reason\":\"test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"signal\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"fresher\":true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"node\":2"), std::string::npos);

  // Slots are finite; exhaustion reports -1 instead of corrupting.
  FlightRecorder full;
  std::size_t granted = 0;
  while (full.register_slot() >= 0) ++granted;
  EXPECT_EQ(granted, FlightRecorder::kMaxSlots);
  EXPECT_EQ(full.register_slot(), -1);
  std::remove(path.c_str());
}

// --- HTTP request parsing -----------------------------------------------------

TEST(AdminHttpParser, PartialReadsThenComplete) {
  std::string buf;
  net::HttpRequest req;
  buf += "GET /met";
  EXPECT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kNeedMore);
  buf += "rics HTTP/1.1\r\nHost: x\r";
  EXPECT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kNeedMore);
  buf += "\n\r\n";
  ASSERT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_TRUE(req.query.empty());
  EXPECT_TRUE(buf.empty());
}

TEST(AdminHttpParser, PipelinedRequestsSurvive) {
  std::string buf =
      "GET /healthz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\n\r\n";
  net::HttpRequest req;
  ASSERT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kOk);
  EXPECT_EQ(req.target, "/healthz");
  ASSERT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kOk);
  EXPECT_EQ(req.target, "/readyz");
  EXPECT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kNeedMore);
}

TEST(AdminHttpParser, QuerySplitsFromTarget) {
  std::string buf = "GET /tracez?zxid=4294967297 HTTP/1.1\r\n\r\n";
  net::HttpRequest req;
  ASSERT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kOk);
  EXPECT_EQ(req.target, "/tracez");
  EXPECT_EQ(req.query, "zxid=4294967297");
}

TEST(AdminHttpParser, MalformedRejectedEarly) {
  // A complete garbage request line fails before the blank line arrives.
  std::string buf = "NOT AN HTTP REQUEST AT ALL\r\n";
  net::HttpRequest req;
  EXPECT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kBad);

  std::string buf2 = "GET/nospace HTTP/1.1\r\n\r\n";
  EXPECT_EQ(net::parse_http_request(buf2, &req), net::HttpParse::kBad);

  std::string buf3 = "GET notaslash HTTP/1.1\r\n\r\n";
  EXPECT_EQ(net::parse_http_request(buf3, &req), net::HttpParse::kBad);
}

TEST(AdminHttpParser, OversizedRejected) {
  std::string buf = "GET /metrics HTTP/1.1\r\n";
  buf.append(net::kMaxAdminRequestBytes + 10, 'x');  // header flood, no CRLF
  net::HttpRequest req;
  EXPECT_EQ(net::parse_http_request(buf, &req), net::HttpParse::kTooLarge);
}

// --- Routing (AdminServer::handle) -------------------------------------------

net::AdminSnapshot canned_snapshot() {
  net::AdminSnapshot s;
  s.prometheus = "# TYPE zab_x counter\nzab_x 7\n";
  s.status_json = R"({"role":"LEADING","epoch":3})";
  s.trace_jsonl =
      "{\"zxid\":\"<1,1>\",\"packed\":4294967297,\"stage\":\"PROPOSE\"}\n"
      "{\"zxid\":\"<1,2>\",\"packed\":4294967298,\"stage\":\"COMMIT\"}\n";
  s.ready = true;
  s.not_ready_reason.clear();
  return s;
}

TEST(AdminHandle, RoutesAndStatusCodes) {
  const auto snap = canned_snapshot();
  auto get = [&](const std::string& target, bool stale = false) {
    net::HttpRequest req;
    req.method = "GET";
    const auto q = target.find('?');
    req.target = target.substr(0, q);
    if (q != std::string::npos) req.query = target.substr(q + 1);
    return net::AdminServer::handle(req, snap, stale);
  };

  EXPECT_NE(get("/healthz").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(get("/healthz").find("ok\n"), std::string::npos);
  EXPECT_NE(get("/readyz").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(get("/nope").find("HTTP/1.1 404"), std::string::npos);

  net::HttpRequest post;
  post.method = "POST";
  post.target = "/metrics";
  EXPECT_NE(net::AdminServer::handle(post, snap, false).find("HTTP/1.1 405"),
            std::string::npos);

  // /metrics: exposition + build info + freshness marker.
  const std::string m = get("/metrics");
  EXPECT_NE(m.find("zab_x 7"), std::string::npos);
  EXPECT_NE(m.find("zab_build_info{git_sha=\""), std::string::npos);
  EXPECT_NE(m.find("zab_admin_scrape_stale 0"), std::string::npos);
  EXPECT_NE(m.find("text/plain; version=0.0.4"), std::string::npos);

  // Stale: metrics still answer (marked), readiness refuses.
  const std::string ms = get("/metrics", /*stale=*/true);
  EXPECT_NE(ms.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(ms.find("zab_admin_scrape_stale 1"), std::string::npos);
  const std::string rs = get("/readyz", /*stale=*/true);
  EXPECT_NE(rs.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(rs.find("stale"), std::string::npos);

  // Not-ready reason travels into the 503 body.
  auto not_ready = snap;
  not_ready.ready = false;
  not_ready.not_ready_reason = "electing";
  net::HttpRequest rz;
  rz.method = "GET";
  rz.target = "/readyz";
  const std::string r503 = net::AdminServer::handle(rz, not_ready, false);
  EXPECT_NE(r503.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(r503.find("electing"), std::string::npos);

  EXPECT_NE(get("/status").find(R"("role":"LEADING")"), std::string::npos);

  // /tracez: unfiltered returns both lines. A fresh body arrives filtered
  // by the collector and passes through; a stale one is the cached whole
  // ring, which ?zxid= filters by packed id.
  EXPECT_EQ(lines_of(net::http_body(get("/tracez"))).size(), 2u);
  EXPECT_EQ(lines_of(net::http_body(get("/tracez?zxid=4294967298"))).size(), 2u);
  const std::string filtered =
      net::http_body(get("/tracez?zxid=4294967298", /*stale=*/true));
  const auto fl = lines_of(filtered);
  ASSERT_EQ(fl.size(), 1u) << filtered;
  EXPECT_NE(fl[0].find("COMMIT"), std::string::npos);
}

// --- Prometheus exposition + shared quantile scheme --------------------------

TEST(PrometheusExposition, FormatAndSanitization) {
  MetricsRegistry reg;
  reg.counter("zab.leader.commits").add(41);
  reg.gauge("zab.quorum.healthy").set(1);
  reg.gauge("net.tcp-in.bytes").set(-5);  // '-' must sanitize to '_'
  Histogram& h = reg.histogram("zab.stage.propose_to_commit");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<std::uint64_t>(i));

  const std::string p = reg.to_prometheus();
  EXPECT_NE(p.find("# TYPE zab_leader_commits counter\n"), std::string::npos);
  EXPECT_NE(p.find("zab_leader_commits 41\n"), std::string::npos);
  EXPECT_NE(p.find("# TYPE zab_quorum_healthy gauge\n"), std::string::npos);
  EXPECT_NE(p.find("net_tcp_in_bytes -5\n"), std::string::npos);
  EXPECT_NE(p.find("# TYPE zab_stage_propose_to_commit summary\n"),
            std::string::npos);
  EXPECT_NE(p.find("zab_stage_propose_to_commit_count 100\n"),
            std::string::npos);
  EXPECT_NE(p.find("zab_stage_propose_to_commit_sum 5050\n"),
            std::string::npos);
  EXPECT_NE(p.find("# TYPE zab_stage_propose_to_commit_max gauge\n"),
            std::string::npos);
  for (const QuantileSpec& qs : kHistogramQuantiles) {
    EXPECT_NE(p.find("zab_stage_propose_to_commit{quantile=\"" +
                     std::string(qs.label) + "\"} "),
              std::string::npos)
        << qs.label;
  }
}

TEST(PrometheusExposition, QuantilesRoundTripAcrossExpositions) {
  // One histogram, three expositions: the to_text() keys (_p50/_p90/_p99),
  // the JSON object keys (p50/p90/p99), and the Prometheus quantile labels
  // must all report the same value for the same quantile.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 1000; ++i) h.record(static_cast<std::uint64_t>(i * 17));

  const std::string text = reg.to_text();
  const std::string jsn = reg.to_json();
  const std::string prom = reg.to_prometheus();
  ASSERT_TRUE(json_valid(jsn)) << jsn;

  for (const QuantileSpec& qs : kHistogramQuantiles) {
    const std::string v = std::to_string(h.quantile(qs.q));
    EXPECT_NE(text.find("lat_" + std::string(qs.key) + "\t" + v + "\n"),
              std::string::npos)
        << "text missing " << qs.key << "=" << v << "\n" << text;
    EXPECT_NE(jsn.find("\"" + std::string(qs.key) + "\":" + v),
              std::string::npos)
        << "json missing " << qs.key << "=" << v << "\n" << jsn;
    EXPECT_NE(prom.find("lat{quantile=\"" + std::string(qs.label) + "\"} " +
                        v + "\n"),
              std::string::npos)
        << "prometheus missing " << qs.label << "=" << v << "\n" << prom;
  }
  const std::string mx = std::to_string(h.max());
  EXPECT_NE(text.find("lat_max\t" + mx), std::string::npos);
  EXPECT_NE(jsn.find("\"max\":" + mx), std::string::npos);
  EXPECT_NE(prom.find("lat_max " + mx), std::string::npos);
}

// --- AdminServer over real sockets -------------------------------------------

TEST(AdminServer, ServesSnapshotsOverHttp) {
  net::AdminConfig cfg;
  net::AdminServer srv(cfg, [](const net::HttpRequest&,
                               std::function<void(net::AdminSnapshot)> done) {
    done(canned_snapshot());
  });
  ASSERT_TRUE(srv.start().is_ok());
  ASSERT_NE(srv.port(), 0);

  auto r = net::http_get(srv.port(), "/healthz");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_NE(r.value().find("HTTP/1.1 200"), std::string::npos);

  r = net::http_get(srv.port(), "/metrics");
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value().find("zab_x 7"), std::string::npos);
  EXPECT_NE(r.value().find("zab_admin_scrape_stale 0"), std::string::npos);

  r = net::http_get(srv.port(), "/readyz");
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value().find("ready"), std::string::npos);

  r = net::http_get(srv.port(), "/status");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(json_valid(net::http_body(r.value())));
  srv.stop();
}

TEST(AdminServer, WedgedCollectorServesStaleCacheAndFailsReadiness) {
  // First collect succeeds; afterwards the "node loop" swallows every task
  // (a wedged pipeline). /metrics must keep answering from the cache with
  // the stale marker; /readyz must refuse.
  std::atomic<int> calls{0};
  net::AdminConfig cfg;
  cfg.collect_timeout = millis(50);
  net::AdminServer srv(cfg,
                       [&](const net::HttpRequest&,
                           std::function<void(net::AdminSnapshot)> done) {
                         if (calls.fetch_add(1) == 0) done(canned_snapshot());
                         // else: never call done — simulate a wedged loop.
                       });
  ASSERT_TRUE(srv.start().is_ok());

  auto r = net::http_get(srv.port(), "/metrics");
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value().find("zab_admin_scrape_stale 0"), std::string::npos);

  r = net::http_get(srv.port(), "/metrics");
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value().find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(r.value().find("zab_x 7"), std::string::npos) << "cache lost";
  EXPECT_NE(r.value().find("zab_admin_scrape_stale 1"), std::string::npos);

  r = net::http_get(srv.port(), "/readyz");
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value().find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(r.value().find("stale"), std::string::npos);
  srv.stop();
}

// --- Per-target collection and the /tracez reader ----------------------------

TEST(AdminCollect, RendersOnlyTheRequestedTarget) {
  harness::ClusterConfig cfg;
  cfg.n = 3;
  harness::SimCluster c(cfg);
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ASSERT_TRUE(c.replicate_ops(20).is_ok());
  ZabNode& node = c.node(l);
  auto collect = [&](const std::string& target) {
    return pb::collect_admin_snapshot(node, nullptr, c.storage(l), target);
  };
  auto bodies = [](const net::AdminSnapshot& s) {
    return s.prometheus.size() + s.status_json.size() + s.trace_jsonl.size() +
           s.slowlog_jsonl.size() + s.config_json.size();
  };

  // Readiness alone: no trace JSONL, no Prometheus text, no body at all.
  for (const char* target : {"/readyz", "/nope"}) {
    const net::AdminSnapshot s = collect(target);
    EXPECT_EQ(s.ready, node.readiness().ready) << target;
    EXPECT_EQ(bodies(s), 0u) << target;
  }
  const net::AdminSnapshot m = collect("/metrics");
  EXPECT_NE(m.prometheus.find("zab_leader_commits 20\n"), std::string::npos);
  EXPECT_EQ(bodies(m), m.prometheus.size());

  // /tracez carries every ring event, and the reader gets each one back.
  const net::AdminSnapshot t = collect("/tracez");
  EXPECT_EQ(bodies(t), t.trace_jsonl.size());
  const std::vector<trace::Event> ring = node.trace().snapshot();
  ASSERT_GT(ring.size(), 20u);
  auto read = pb::parse_admin_trace_jsonl(t.trace_jsonl);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_EQ(read.value().size(), ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::Event& e = read.value()[i];
    EXPECT_EQ(e.zxid, ring[i].zxid) << i;
    EXPECT_EQ(e.stage, ring[i].stage) << i;
    EXPECT_EQ(e.node, ring[i].node) << i;
    EXPECT_EQ(e.t, ring[i].t) << i;
    EXPECT_EQ(e.epoch, ring[i].epoch) << i;
  }
}

TEST(AdminCollect, FilteredTraceRendersOnlyTheMatchingEvents) {
  // A full ring: a ?zxid= (or ?epoch=) collection renders exactly the lines
  // of an unfiltered one that match, and an unknown zxid renders nothing.
  harness::ClusterConfig cfg;
  cfg.n = 3;
  harness::SimCluster c(cfg);
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);
  ZabNode& node = c.node(l);
  while (node.trace().snapshot().size() < node.trace().capacity()) {
    ASSERT_TRUE(c.replicate_ops(200).is_ok());
  }
  auto trace_of = [&](const std::string& query) {
    return pb::collect_admin_snapshot(node, nullptr, c.storage(l), "/tracez", query)
        .trace_jsonl;
  };
  const std::vector<std::string> all = lines_of(trace_of(""));
  ASSERT_EQ(all.size(), node.trace().capacity());
  const Zxid z = node.trace().snapshot().back().zxid;
  ASSERT_NE(z, Zxid::zero());
  for (const std::string& needle :
       {"\"packed\":" + std::to_string(z.packed()) + ",",
        "\"epoch\":" + std::to_string(node.epoch()) + ","}) {
    std::vector<std::string> want;
    for (const std::string& line : all) {
      if (line.find(needle) != std::string::npos) want.push_back(line);
    }
    const std::string query = needle[1] == 'p'
                                  ? "zxid=" + std::to_string(z.packed())
                                  : "epoch=" + std::to_string(node.epoch());
    ASSERT_FALSE(want.empty()) << query;
    EXPECT_EQ(lines_of(trace_of(query)), want) << query;
  }
  EXPECT_EQ(trace_of("zxid=" + std::to_string(Zxid{999, 1}.packed())), "");
  EXPECT_EQ(trace_of("zxid=junk"), "");
}

TEST(AdminTraceReader, RejectsTruncatedLinesAndUnknownStages) {
  const std::string line =
      R"({"zxid":"<2,9>","packed":8589934601,"epoch":2,"stage":"COMMIT",)"
      R"("node":3,"t_ns":-5})";
  auto ok = pb::parse_admin_trace_jsonl(line + "\n" + line);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  ASSERT_EQ(ok.value().size(), 2u);
  const trace::Event& e = ok.value()[0];
  EXPECT_EQ(e.zxid, (Zxid{2, 9}));
  EXPECT_EQ(e.stage, trace::Stage::kCommit);
  EXPECT_EQ(e.node, 3u);
  EXPECT_EQ(e.t, -5);
  EXPECT_EQ(e.epoch, 2u);
  EXPECT_TRUE(pb::parse_admin_trace_jsonl("").is_ok());

  for (std::size_t len = 1; len < line.size(); ++len) {
    EXPECT_FALSE(pb::parse_admin_trace_jsonl(line.substr(0, len)).is_ok())
        << "len " << len;
  }
  auto with = [&line](const std::string& from, const std::string& to) {
    std::string out = line;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  for (const std::string& bad :
       {with("COMMIT", "COMMITTED"), with("COMMIT", "?"),
        with("\"node\":3,", ""), with("-5", "x5"), with("-5", "")}) {
    EXPECT_FALSE(pb::parse_admin_trace_jsonl(bad).is_ok()) << bad;
  }
  EXPECT_EQ(trace::stage_from_name("DELIVER"), trace::Stage::kDeliver);
  EXPECT_FALSE(trace::stage_from_name("deliver").has_value());
}

// --- RuntimeCluster integration ----------------------------------------------

template <typename Pred>
bool eventually(Pred p, std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return p();
}

bool readyz_ok(harness::RuntimeCluster& c, NodeId id) {
  auto r = c.admin_get(id, "/readyz");
  return r.is_ok() &&
         r.value().find("HTTP/1.1 200") != std::string::npos;
}

TEST(AdminPlaneCluster, ScrapeAllNodesAndReadyzTracksPartition) {
  harness::RuntimeClusterConfig cfg;
  cfg.n = 3;
  cfg.with_admin = true;
  harness::RuntimeCluster c(cfg);
  ASSERT_TRUE(c.start().is_ok());
  const NodeId l = c.wait_for_leader();
  ASSERT_NE(l, kNoNode);

  // Commit a write so traces and stage metrics exist.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> committed_zxid{0};
  c.with_tree(l, [&](pb::ReplicatedTree& tree) {
    tree.create("/admin", to_bytes("x"), [&](const pb::OpResult& r) {
      if (r.status.is_ok()) committed_zxid = r.zxid.packed();
      done = true;
    });
  });
  ASSERT_TRUE(eventually([&] { return done.load(); }));
  ASSERT_NE(committed_zxid.load(), 0u);

  // Every node's admin plane answers, with full Prometheus content and a
  // valid /status document.
  for (NodeId id = 1; id <= 3; ++id) {
    ASSERT_NE(c.admin_port(id), 0) << "node " << id;
    auto m = c.admin_get(id, "/metrics");
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    EXPECT_NE(m.value().find("# TYPE zab_node_delivered counter"),
              std::string::npos)
        << "node " << id;
    EXPECT_NE(m.value().find("zab_build_info{"), std::string::npos);

    auto s = c.admin_get(id, "/status");
    ASSERT_TRUE(s.is_ok());
    const std::string body = net::http_body(s.value());
    EXPECT_TRUE(json_valid(body)) << body;
    EXPECT_NE(body.find("\"peers\":[1,2,3]"), std::string::npos) << body;
    EXPECT_NE(body.find("\"storage\":"), std::string::npos);

    EXPECT_TRUE(eventually([&] { return readyz_ok(c, id); }))
        << "node " << id << " never became ready";
  }

  // /tracez on the leader knows the committed transaction, both unfiltered
  // and via the ?zxid= filter.
  auto t = c.admin_get(l, "/tracez");
  ASSERT_TRUE(t.is_ok());
  EXPECT_NE(net::http_body(t.value()).find("\"stage\":\"COMMIT\""),
            std::string::npos);
  auto tf = c.admin_get(
      l, "/tracez?zxid=" + std::to_string(committed_zxid.load()));
  ASSERT_TRUE(tf.is_ok());
  const std::string tbody = net::http_body(tf.value());
  EXPECT_FALSE(tbody.empty());
  for (const auto& line : lines_of(tbody)) {
    EXPECT_TRUE(json_valid(line)) << line;
    EXPECT_NE(
        line.find("\"packed\":" + std::to_string(committed_zxid.load())),
        std::string::npos)
        << line;
  }

  // Partition a follower: it loses the leader, goes back to electing, and
  // its /readyz flips to 503 — while /metrics keeps answering 200 and the
  // leader (still quorate with the other follower) stays ready.
  const NodeId muted = (l == 1) ? 2 : 1;
  c.mute_node(muted);
  ASSERT_TRUE(eventually([&] {
    auto r = c.admin_get(muted, "/readyz");
    return r.is_ok() &&
           r.value().find("HTTP/1.1 503") != std::string::npos;
  })) << "muted follower still ready";
  auto mm = c.admin_get(muted, "/metrics");
  ASSERT_TRUE(mm.is_ok());
  EXPECT_NE(mm.value().find("HTTP/1.1 200"), std::string::npos);
  EXPECT_TRUE(readyz_ok(c, l)) << "leader lost readiness with quorum intact";

  // Heal: the follower resyncs and readiness returns.
  c.unmute_node(muted);
  EXPECT_TRUE(eventually([&] { return readyz_ok(c, muted); }));
  c.stop();
}

std::atomic<int> g_term_seen{0};
void count_term(int) { g_term_seen.fetch_add(1); }

TEST(AdminPlaneCluster, SigtermOnLeaderLeavesParseablePostmortem) {
  const std::string path = ::testing::TempDir() + "zab_postmortem_term.json";
  std::remove(path.c_str());

  // A benign SIGTERM handler stands in for zab_server's graceful-shutdown
  // hook; the flight recorder must chain to it instead of killing us.
  using SigHandler = void (*)(int);
  SigHandler prev = std::signal(SIGTERM, count_term);
  const int term_before = g_term_seen.load();

  {
    harness::RuntimeClusterConfig cfg;
    cfg.n = 3;
    cfg.crash_dump_path = path;
    harness::RuntimeCluster c(cfg);
    ASSERT_TRUE(c.start().is_ok());
    const NodeId l = c.wait_for_leader();
    ASSERT_NE(l, kNoNode);

    std::atomic<bool> done{false};
    c.with_tree(l, [&](pb::ReplicatedTree& tree) {
      tree.create("/doomed", to_bytes("x"),
                  [&](const pb::OpResult&) { done = true; });
    });
    ASSERT_TRUE(eventually([&] { return done.load(); }));

    // Bundles publish at watchdog cadence (50 ms); wait until every node
    // has pushed at least one (the dump below must cover all three).
    std::this_thread::sleep_for(300ms);

    // "Kill" the process: the recorder dumps, then chains to count_term —
    // which is why this test is still running afterwards.
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    ASSERT_TRUE(
        eventually([&] { return g_term_seen.load() > term_before; }, 2000ms));
    ASSERT_TRUE(
        eventually([&] { return c.flight_recorder().dump_count() >= 1; }));
    c.stop();
  }
  std::signal(SIGTERM, prev);

  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty());
  const auto lines = lines_of(dump);
  ASSERT_GE(lines.size(), 4u) << "header + one bundle per node expected:\n"
                              << dump;
  EXPECT_NE(lines[0].find("\"event\":\"postmortem\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"reason\":\"sigterm\""), std::string::npos);
  bool saw_leader = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(json_valid(lines[i])) << lines[i];
    EXPECT_NE(lines[i].find("\"pipeline\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"readiness\":"), std::string::npos);
    if (lines[i].find("\"role\":\"LEADING\"") != std::string::npos) {
      saw_leader = true;
    }
  }
  EXPECT_TRUE(saw_leader) << dump;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zab
