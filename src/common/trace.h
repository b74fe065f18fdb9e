// zxid-scoped stage tracing: a fixed-capacity ring buffer of lifecycle
// events, stamped with (zxid, stage, node, monotonic ns).
//
// Every transaction moving through the broadcast pipeline leaves a trail —
// PROPOSE when it enters, LOG_FSYNC when its append is durable, ACK when a
// quorum has it, COMMIT when it is decided, DELIVER when the application
// sees it — and protocol transitions (election start, elected, phase
// changes) stamp events under the zero zxid. A run's ring can then be
// replayed into a per-zxid latency breakdown or a leader-election timeline.
//
// The recorder is deliberately dumb and cheap: one array write per event,
// no allocation after construction, old events overwritten when the ring
// wraps. Not thread-safe — each node owns its ring and records from its
// event loop, same as the protocol state machine.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace zab::trace {

enum class Stage : std::uint8_t {
  kPropose = 0,    // txn entered the pipeline (leader: created; follower: received)
  kLogFsync = 1,   // local append reported durable
  kAck = 2,        // leader: quorum of acks reached for this zxid
  kCommit = 3,     // decided (leader: quorum; follower: COMMIT/watermark)
  kDeliver = 4,    // handed to the application, zxid order
  kElectionStart = 5,  // node went LOOKING (zxid = zero)
  kElected = 6,        // election concluded; node = chosen leader (zxid = zero)
  kLeaderActive = 7,   // leader finished phase 2 and activated (zxid = zero)
  kFollowerActive = 8, // follower received UPTODATE (zxid = zero)
  kClientRecv = 9,     // client frame for this op arrived at the origin
  kClientReply = 10,   // response for this op handed to the client conn
};
inline constexpr std::size_t kNumStages = 11;

[[nodiscard]] const char* stage_name(Stage s);
/// Inverse of stage_name(); nullopt for a name it never returns.
[[nodiscard]] std::optional<Stage> stage_from_name(std::string_view name);

struct Event {
  Zxid zxid;            // zero for protocol-level (non-txn) events
  Stage stage = Stage::kPropose;
  NodeId node = kNoNode;  // the peer the event concerns (self unless noted)
  TimePoint t = 0;        // monotonic ns (sim time under the simulator)
  /// Epoch the recorder was in when the event fired. Protocol-level events
  /// all share zxid zero, so without this an election timeline filter would
  /// interleave every election the ring remembers; /tracez?epoch=E scopes
  /// to one.
  Epoch epoch = 0;
};

/// Events a node's trace ring holds; the oldest is overwritten.
inline constexpr std::size_t kTraceCapacity = 8192;

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = kTraceCapacity);

  void record(Zxid zxid, Stage stage, NodeId node, TimePoint t) {
    if (!enabled_) return;
    Event& e = ring_[head_];
    e.zxid = zxid;
    e.stage = stage;
    e.node = node;
    e.t = t;
    e.epoch = epoch_;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size()) ++size_;
  }

  /// Recording toggle; disabled rings cost one branch per record().
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Epoch stamped into subsequent events; the owning node updates it on
  /// every epoch transition (including tentative ones during elections).
  void set_epoch(Epoch e) { epoch_ = e; }
  [[nodiscard]] Epoch epoch() const { return epoch_; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  void clear();

  /// Events oldest-first (copies out; the ring keeps recording).
  [[nodiscard]] std::vector<Event> events() const;
  /// Point-in-time copy of the ring's surviving events. The result is
  /// ALWAYS ordered oldest-first, including after the ring has wrapped and
  /// overwritten its oldest entries (the read starts at the oldest surviving
  /// slot, not at index 0) — cross-node trace merging depends on this.
  /// Regression-tested in tests/test_metrics_trace.cpp (capacity-4 ring,
  /// 6 events).
  [[nodiscard]] std::vector<Event> snapshot() const { return events(); }
  /// Events for one transaction, oldest-first.
  [[nodiscard]] std::vector<Event> events_for(Zxid z) const;

  /// First (earliest surviving) timestamp per stage for a zxid; entries for
  /// stages never recorded (or already overwritten) are -1.
  struct StageTimes {
    std::int64_t t[kNumStages];
    StageTimes() {
      for (auto& v : t) v = -1;
    }
    [[nodiscard]] std::int64_t at(Stage s) const {
      return t[static_cast<std::size_t>(s)];
    }
  };
  [[nodiscard]] StageTimes stage_times(Zxid z) const;

 private:
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  bool enabled_ = true;
  Epoch epoch_ = 0;
};

/// One node's ring snapshot: recorder id + event array. The recorder id is
/// explicit because Event::node is not always the recording node (a
/// leader's ACK event names the follower that completed the quorum).
struct TraceSnapshot {
  NodeId recorder = kNoNode;
  std::vector<Event> events;
};

}  // namespace zab::trace
