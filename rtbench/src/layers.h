// Per-layer costs of one traced phase: thread groups from /proc, registry
// deltas from every node, and per-write spans joined to the ensemble's
// merged trace timeline.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "driver.h"
#include "harness/trace_collector.h"
#include "proc_stats.h"

namespace rtbench {

/// Which thread ids belong to which part of the program.
struct ThreadMap {
  pid_t generator = 0;
  pid_t leader_loop = 0;
  std::set<pid_t> follower_loops;
  std::set<pid_t> client_io;
  std::set<pid_t> all;  // every thread seen in either sample
};

/// What the traced phase measured, before it is turned into metrics.
struct TracedPhase {
  const PhaseResult* phase = nullptr;
  ThreadSamples start;
  ThreadSamples end;
  std::int64_t proc_cpu_ns = 0;  // getrusage delta
  std::uint64_t allocs = 0;      // program threads only
  // Registry deltas (registries reset at phase start).
  std::vector<zab::MetricsSnapshot> nodes;  // index = node id - 1
  std::size_t leader_index = 0;
};

/// One write's path through the ensemble, joined by its reply zxid.
struct JoinedSpan {
  WriteSpan gen;
  std::uint32_t origin = 0;  // node id the write was sent to
  // Segment durations (µs) partitioning gen send -> gen receive.
  double client_in = 0, ingress = 0, quorum = 0, commit = 0, deliver = 0,
         out = 0;
  double leader_fsync = -1;  // PROPOSE -> leader LOG_FSYNC, -1 if absent
  double reply_write = -1;   // DELIVER -> CLIENT_REPLY (origin = leader)
  std::string events_json;
};

/// Joins the generator's write spans with the merged timelines. Spans whose
/// zxid fell out of the trace rings are skipped.
[[nodiscard]] std::vector<JoinedSpan> join_spans(
    const std::vector<WriteSpan>& spans,
    const std::vector<zab::harness::TraceCollector::ZxidTimeline>& timelines,
    std::uint32_t leader_id);

/// Writes one JSON object per joined span; false on an IO error.
bool write_spans_jsonl(const std::string& path,
                       const std::vector<JoinedSpan>& spans);

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Name and unit of every per-layer metric the traced pass reports, in
/// report order (README.md defines each).
[[nodiscard]] const std::vector<MetricDef>& layer_metric_defs();

/// Every per-layer metric but the trace overhead, by name.
[[nodiscard]] std::map<std::string, double> layer_metrics(
    const TracedPhase& t, const ThreadMap& threads,
    const std::vector<JoinedSpan>& joined);

}  // namespace rtbench
