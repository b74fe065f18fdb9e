// Request-scoped latency attribution: one OpSpan follows a client write from
// wire ingress to response.
//
// The TraceRing answers "what happened to zxid Z" after the fact; an OpSpan
// answers "where did THIS op's latency go" while it is still in flight. The
// client service stamps ingress on its IO thread, the leader stamps every
// pipeline hop (propose, local fsync, quorum ack, commit, deliver) on its
// event loop, and the origin replica stamps the reply hand-off — all into one
// compact struct keyed by zxid. Finalized spans feed the zab.op.stage.*
// histograms (whose p99s decompose the client-visible tail) and the SlowLog.
//
// All stamps are monotonic ns on one clock. A span whose ingress was stamped
// on a different machine than the leader mixes clocks; in-process harnesses
// share one clock, and cross-machine deployments should read queue_wait with
// the same skepticism as any unsynchronized timestamp delta.
#pragma once

#include <cstdint>
#include <string>

namespace zab {

struct MetricsSnapshot;

struct OpSpan {
  // Identity / context.
  std::uint64_t session_id = 0;
  std::uint64_t cxid = 0;       // client-assigned op id (xid of the write)
  std::uint64_t zxid = 0;       // packed; 0 until the leader assigns one
  std::uint8_t op_kind = 0;     // ClientOpKind of the originating request
  std::uint32_t payload_bytes = 0;
  std::string path;             // first op's path, for slow-op context

  // Absolute stamps (monotonic ns); -1 = not reached / not applicable.
  std::int64_t recv_ns = -1;     // client frame arrived (ingress IO thread)
  std::int64_t propose_ns = -1;  // leader assigned the zxid and fanned out
  std::int64_t fsync_ns = -1;    // leader's local append became durable
  std::int64_t quorum_ns = -1;   // quorum of acks reached
  std::int64_t commit_ns = -1;   // commit decided
  std::int64_t deliver_ns = -1;  // applied to the tree in zxid order
  std::int64_t reply_ns = -1;    // response handed to the client connection

  /// Per-stage durations derived from adjacent stamps; -1 when either
  /// endpoint is unstamped, clamped at 0 when stamps raced out of order
  /// (a follower quorum can complete before the leader's own fsync).
  struct Stages {
    std::int64_t queue_wait = -1;   // recv -> propose
    std::int64_t log_fsync = -1;    // propose -> fsync
    std::int64_t quorum_ack = -1;   // fsync (or propose) -> quorum
    std::int64_t commit = -1;       // quorum -> commit
    std::int64_t deliver = -1;      // commit -> deliver
    std::int64_t reply_write = -1;  // deliver -> reply
  };
  [[nodiscard]] Stages stages() const;

  /// End-to-end ns: first stamped of (recv, propose) to last stamped of
  /// (reply, deliver); -1 while the span is incomplete.
  [[nodiscard]] std::int64_t total_ns() const;

  /// One JSON object: identity, raw stamps, derived stage ns, total.
  [[nodiscard]] std::string to_json() const;
};

/// Stage names in pipeline order; `zab.op.stage.<name>` is the histogram each
/// finalized span's duration feeds.
inline constexpr const char* kOpStageNames[] = {
    "queue_wait", "log_fsync", "quorum_ack", "commit", "deliver",
    "reply_write",
};
inline constexpr std::size_t kNumOpStages = 6;

/// Human table decomposing the op tail over the zab.op.stage.* histograms:
/// per-stage count/p50/p99 (µs), the sum of stage p99s, and the measured
/// end-to-end p99 (zab.op.total_ns) it should reconcile with. Empty string
/// when no spans have been recorded.
[[nodiscard]] std::string op_p99_decomposition(const MetricsSnapshot& snap);

}  // namespace zab
