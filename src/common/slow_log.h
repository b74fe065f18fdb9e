// Redis-SLOWLOG-style ring of the slowest recent ops.
//
// Every finalized OpSpan whose end-to-end time meets the threshold is
// admitted; the fixed-capacity ring keeps the most recent admissions and
// evicts the oldest. Entries carry the full span (so a slow op can be
// attributed to its dominant stage), plus a monotonically increasing id that
// survives eviction — `total_logged()` minus `size()` says how many slow ops
// scrolled out of the window.
//
// Not thread-safe: owned by the node's event loop, same as the TraceRing.
// Exposed through admin `GET /slowlog[?n=]` and the flight-recorder
// post-mortem bundle.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/op_span.h"
#include "common/time.h"

namespace zab {

/// A finalized span whose end-to-end time meets this enters a node's slow
/// log.
inline constexpr Duration kSlowOpThreshold = millis(10);

class SlowLog {
 public:
  explicit SlowLog(std::size_t capacity = 128,
                   std::int64_t threshold_ns = kSlowOpThreshold);

  struct Entry {
    std::uint64_t id = 0;  // admission order, never reused
    std::int64_t total_ns = 0;
    OpSpan span;
  };

  /// Admit `span` when its total_ns() meets the threshold. Returns true when
  /// admitted. Incomplete spans (total_ns() < 0) are never admitted.
  bool observe(const OpSpan& span);

  void set_threshold_ns(std::int64_t t) { threshold_ns_ = t; }
  [[nodiscard]] std::int64_t threshold_ns() const { return threshold_ns_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Entries ever admitted, including evicted ones.
  [[nodiscard]] std::uint64_t total_logged() const { return next_id_; }

  /// Newest-first; n == 0 (or n > size) returns everything retained.
  [[nodiscard]] std::vector<Entry> entries(std::size_t n = 0) const;

  /// Newest-first JSONL, one `{"id":..,"total_ns":..,<span fields>}` per
  /// line; n as in entries().
  [[nodiscard]] std::string to_jsonl(std::size_t n = 0) const;

  void clear() { ring_.clear(); }

 private:
  std::size_t cap_;
  std::int64_t threshold_ns_;
  std::uint64_t next_id_ = 0;
  std::deque<Entry> ring_;  // oldest at front
};

}  // namespace zab
