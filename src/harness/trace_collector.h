// Cross-node trace merge: folds per-node TraceRing snapshots into one
// cluster-wide, per-zxid timeline on the leader's clock.
//
// Each node records trace events against its own monotonic clock. The
// leader continuously estimates every follower's clock offset from the
// PING/PONG round trip (common/clock_sync.h); feeding those offsets in here
// maps every follower event onto the leader's timeline, which makes
// cross-node hop latencies (leader PROPOSE -> follower PROPOSE, follower
// LOG_FSYNC -> leader quorum ACK, leader COMMIT -> follower COMMIT)
// directly measurable. Offsets carry +-RTT/2 of error, so short hops can
// come out slightly negative after correction; hop recording clamps them to
// zero rather than polluting the histograms with impossible values.
//
// Usage:
//   TraceCollector tc;
//   tc.add(snap_from_leader, 0);
//   tc.add(snap_from_follower2, offset_ns_of_2);
//   auto timelines = tc.merge();        // per-zxid, time-ordered
//   tc.hop_metrics().to_text();         // zab.hop.* histograms
//   tc.dump_jsonl("trace.jsonl");       // one JSON object per zxid
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"

namespace zab::harness {

class TraceCollector {
 public:
  /// One trace event mapped onto the reference (leader) timeline.
  struct MergedEvent {
    NodeId recorder = kNoNode;  // node whose ring held the event
    NodeId subject = kNoNode;   // Event::node (peer the event concerns)
    trace::Stage stage = trace::Stage::kPropose;
    TimePoint t = 0;  // offset-corrected, reference-clock ns
  };

  /// A cross-node hop computed for one zxid (already clamped to >= 0).
  struct Hop {
    std::string name;  // histogram key suffix, e.g. "propose_net"
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::int64_t ns = 0;
  };

  struct ZxidTimeline {
    Zxid zxid;
    std::vector<MergedEvent> events;  // time-ordered
    std::vector<Hop> hops;
  };

  /// Fold one node's ring snapshot in. `offset_ns` is added to every
  /// timestamp to map the recorder's clock onto the reference clock (0 for
  /// the reference node itself — normally the leader). Protocol-level
  /// events (zero zxid: elections, activations) are kept under the zero
  /// zxid's timeline.
  void add(const trace::TraceSnapshot& snap, std::int64_t offset_ns);

  /// A collector over several nodes' rings, each shifted by the negated
  /// leader estimate in `offsets` (follower clock minus leader clock, per
  /// recorder); a ring without one (the leader's) keeps its own clock.
  [[nodiscard]] static TraceCollector of_rings(
      const std::vector<trace::TraceSnapshot>& rings,
      const std::map<NodeId, std::int64_t>& offsets);

  [[nodiscard]] std::size_t events_added() const { return events_added_; }
  /// Number of rings folded in.
  [[nodiscard]] std::size_t rings_added() const { return traces_.size(); }

  /// Merge everything added so far: per-zxid timelines sorted by corrected
  /// time (ties broken by stage order), with per-zxid cross-node hops
  /// computed and recorded into the zab.hop.* histograms. Timelines are
  /// zxid-ordered; the zero zxid (protocol events), if present, comes first.
  [[nodiscard]] std::vector<ZxidTimeline> merge();

  /// Hop histograms populated by merge():
  ///   zab.hop.propose_net_ns   leader PROPOSE -> follower PROPOSE
  ///   zab.hop.log_fsync_ns     follower PROPOSE -> follower LOG_FSYNC
  ///   zab.hop.ack_net_ns       quorum follower LOG_FSYNC -> leader ACK
  ///   zab.hop.commit_net_ns    leader COMMIT -> follower COMMIT
  ///   zab.hop.deliver_ns       per-node COMMIT -> DELIVER
  ///   zab.hop.e2e_commit_ns    leader PROPOSE -> leader COMMIT
  ///   zab.hop.ingress_ns       leader CLIENT_RECV -> leader PROPOSE
  ///   zab.hop.reply_write_ns   leader DELIVER -> leader CLIENT_REPLY
  [[nodiscard]] MetricsRegistry& hop_metrics() { return *hops_; }

  /// Write merge()'s result as JSONL: one object per zxid,
  ///   {"zxid":{"epoch":E,"counter":C},
  ///    "events":[{"recorder":R,"node":N,"stage":"PROPOSE","t_ns":T},...],
  ///    "hops":[{"name":"propose_net","from":F,"to":T,"ns":NS},...]}
  Status dump_jsonl(const std::string& path);

 private:
  // recorder -> its offset-corrected events, grouped per zxid at merge time.
  struct NodeTrace {
    NodeId recorder;
    std::vector<trace::Event> events;  // t already corrected
  };
  std::vector<NodeTrace> traces_;
  std::size_t events_added_ = 0;
  // unique_ptr: the registry is immovable, the collector is returned by
  // value from RuntimeCluster::collect_traces().
  std::unique_ptr<MetricsRegistry> hops_ = std::make_unique<MetricsRegistry>();
};

/// The admin-plane twin of RuntimeCluster::collect_traces(): GET /status
/// and /tracez from each admin port on 127.0.0.1 and fold every ring in
/// under the id its /status names. The node whose /status role is LEADING
/// supplies the clock offsets, from its /metrics gauges
/// zab_follower_<id>_clock_offset_ns. Unreachable ports are skipped;
/// fails when none answers or a body does not parse.
[[nodiscard]] Result<TraceCollector> collect_traces_http(
    const std::vector<std::uint16_t>& admin_ports);

}  // namespace zab::harness
