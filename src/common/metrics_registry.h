// Node-wide metrics registry: named counters, gauges, and histograms under
// hierarchical dot-separated keys ("zab.leader.proposals",
// "net.tcp.bytes_out").
//
// Threading model: registration (the counter()/gauge()/histogram() lookups)
// is guarded by a mutex and may happen from any thread. Counters and gauges
// use relaxed atomics, so hot paths on IO threads (transport, storage) can
// bump them concurrently with a reader. Histograms keep the non-thread-safe
// Histogram primitive: a histogram must only be recorded into and snapshot
// from its owning thread (the node's event loop) — the same single-threaded-
// core discipline as the protocol itself.
//
// Hot paths should resolve a metric once and cache the reference; returned
// references stay valid for the registry's lifetime (std::map nodes are
// stable).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/metrics.h"

namespace zab {

/// Monotonic event count, safe to bump from any thread.
class AtomicCounter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, outstanding proposals); any thread.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// The one histogram quantile scheme every exposition shares: to_text()
/// emits `<key>_p50/_p90/_p99/_max`, JSON emits `p50/p90/p99/max` object
/// keys, and the Prometheus summary emits `quantile="0.5"/"0.9"/"0.99"`
/// labels plus a `<name>_max` gauge. Adding a quantile here updates all
/// three paths together (round-trip tested in tests/test_admin_plane.cpp).
struct QuantileSpec {
  const char* key;    // exposition key, e.g. "p50"
  const char* label;  // Prometheus quantile label value, e.g. "0.5"
  double q;
};
inline constexpr QuantileSpec kHistogramQuantiles[] = {
    {"p50", "0.5", 0.5}, {"p90", "0.9", 0.9}, {"p99", "0.99", 0.99}};

/// Point-in-time copy of a registry's contents. Mergeable across nodes
/// (counters/gauges add, histograms merge bucket-wise) so a cluster-wide
/// view is just the per-node snapshots folded together.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram> histograms;

  void merge(const MetricsSnapshot& other);

  /// Text exposition: one "key<TAB>value" line per metric, keys
  /// sorted. Histograms expand to key_count/_mean/_p50/_p90/_p99/_max rows
  /// (values in the recorded unit, i.e. nanoseconds for latency metrics).
  [[nodiscard]] std::string to_text(const std::string& prefix = "") const;

  /// JSON exposition (one object, no trailing newline):
  ///   {"counters":{"k":v,...},"gauges":{...},
  ///    "histograms":{"k":{"count":..,"mean":..,"p50":..,"p90":..,
  ///                       "p99":..,"max":..}}}
  /// The same numbers as to_text, for scripts and the bench trajectories.
  [[nodiscard]] std::string to_json(const std::string& prefix = "") const;

  /// Prometheus text exposition format (one block per metric, ends with a
  /// newline). Dot-separated keys are sanitized to [a-zA-Z0-9_:] metric
  /// names ("zab.leader.commits" -> "zab_leader_commits"); counters and
  /// gauges become `# TYPE` + sample lines, histograms become summaries
  /// (quantile-labeled samples per kHistogramQuantiles plus _sum/_count)
  /// with the tracked maximum as an extra `<name>_max` gauge.
  [[nodiscard]] std::string to_prometheus() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  AtomicCounter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copy out every metric. See the threading note above: histogram copies
  /// are only coherent when taken from the recording thread.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every registered metric (keeps registrations, so cached
  /// references stay valid). Used between bench measurement windows.
  void reset();

  [[nodiscard]] std::string to_text(const std::string& prefix = "") const {
    return snapshot().to_text(prefix);
  }

  [[nodiscard]] std::string to_json(const std::string& prefix = "") const {
    return snapshot().to_json(prefix);
  }

  [[nodiscard]] std::string to_prometheus() const {
    return snapshot().to_prometheus();
  }

 private:
  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, AtomicCounter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace zab
