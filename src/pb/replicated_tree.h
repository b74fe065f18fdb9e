// ReplicatedTree: the primary-backup coordination service on top of Zab.
//
// Each replica hosts a DataTree and a ZabNode. Writes submitted at any
// replica are routed to the primary (the active Zab leader), which
// *executes* them against its speculative state — applied tree plus the
// effects of still-uncommitted txns, ZooKeeper's outstanding-change table —
// and broadcasts the resulting idempotent transaction. Every replica applies
// delivered transactions in zxid order; the origin replica additionally
// completes the client's callback. Reads are served locally and stamped
// with the replica's delivered watermark (ReadResult), so callers can fence
// later reads; sync_barrier() flushes a no-op txn through the pipeline for
// linearizable read fencing (PROTOCOL.md §15).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "pb/data_tree.h"
#include "pb/ops.h"
#include "pb/session_tracker.h"
#include "zab/zab_node.h"

namespace zab::pb {

class ReplicatedTree {
 public:
  using ResultFn = std::function<void(const OpResult&)>;

  /// Wires itself into `node` (deliver/request/snapshot handlers). The node
  /// must not have been started yet.
  explicit ReplicatedTree(ZabNode& node);

  // --- Client write API (asynchronous; cb fires when the txn commits) -------
  void create(const std::string& path, Bytes data, ResultFn cb,
              bool sequential = false);
  void set_data(const std::string& path, Bytes data,
                std::int64_t expected_version, ResultFn cb);
  void remove(const std::string& path, std::int64_t expected_version,
              ResultFn cb);
  /// `session` (0 = none) attributes the ops to a client session; required
  /// for ephemeral creates and close_session. `cxid` (0 = none) is the
  /// client's per-session request id: committed outcomes are recorded
  /// against (session, cxid) on every replica so a reconnecting client can
  /// replay its in-flight request without re-executing it.
  /// `ingress_ns` (monotonic, -1 = not captured) is when the client's frame
  /// hit this replica's wire; it rides the forwarded request so the primary
  /// can attribute pre-propose queueing to the op's span.
  void submit(Op op, ResultFn cb, std::uint64_t session = 0,
              std::uint64_t cxid = 0, std::int64_t ingress_ns = -1);
  /// Atomic multi (ZooKeeper-style): all ops succeed and apply as one txn,
  /// or none do; on failure the result carries the failing sub-op's index.
  void submit_multi(std::vector<Op> ops, ResultFn cb,
                    std::uint64_t session = 0, std::uint64_t cxid = 0,
                    std::int64_t ingress_ns = -1);
  /// Flush a kSyncBarrier no-op through the broadcast pipeline. The callback
  /// fires when the barrier delivers locally, so at that point this
  /// replica's watermark >= the result's zxid and a read served from the
  /// callback observes every write committed before the sync was issued.
  /// Works from followers too (forwarded to the primary like any write).
  void sync_barrier(ResultFn cb);
  /// Membership change (PROTOCOL.md §16). Routed to the primary like any
  /// write; the primary resolves the delta against its active config and
  /// pushes the new config through the broadcast pipeline. The callback's
  /// zxid is the activation point of the new config.
  void reconfig(const ReconfigRequest& rc, ResultFn cb);

  // --- Sessions (replicated state; the primary owns the expiry clock) -------
  /// Mint a durable session: the primary resolves a cluster-unique id
  /// ((epoch << 32) | counter) and the granted lease travels as a
  /// kCreateSession txn, so every replica tracks it. The result carries the
  /// id in `session_id`.
  void create_session(std::uint32_t timeout_ms, ResultFn cb);
  /// Re-attach to an existing session after a reconnect. Goes through the
  /// broadcast pipeline as kTouchSession so the expiry-vs-reattach race is
  /// decided by zxid order: fails with kSessionExpired if a kCloseSession
  /// was (speculatively) ordered first.
  void attach_session(std::uint64_t session, ResultFn cb);
  /// Lightweight liveness heartbeat: refreshes the primary's lease without
  /// entering the broadcast pipeline (fire-and-forget; forwarded to the
  /// leader when called on a follower).
  void touch_session(std::uint64_t session);
  /// Delete the session and every ephemeral it owns (one replicated txn).
  void close_session(std::uint64_t session, ResultFn cb);
  [[nodiscard]] std::size_t active_sessions() const {
    return tree_.sessions().size();
  }
  /// True when `session` exists here and is not (speculatively) closing.
  [[nodiscard]] bool session_alive(std::uint64_t session) const;

  // --- Local reads ------------------------------------------------------------
  // Answered from this replica's applied tree and stamped with its delivered
  // watermark: `zxid` is the fence a caller passes to later reads (here or
  // at another replica) to never observe older state.
  [[nodiscard]] Result<ReadResult<Bytes>> get(const std::string& path) const {
    auto v = tree_.get_data(path);
    if (!v.is_ok()) return v.status();
    return ReadResult<Bytes>{std::move(v).take(), node_->last_delivered()};
  }
  [[nodiscard]] bool exists(const std::string& path) const {
    return tree_.exists(path);
  }
  [[nodiscard]] Result<ReadResult<std::vector<std::string>>> children(
      const std::string& path) const {
    auto v = tree_.get_children(path);
    if (!v.is_ok()) return v.status();
    return ReadResult<std::vector<std::string>>{std::move(v).take(),
                                                node_->last_delivered()};
  }
  [[nodiscard]] Result<ReadResult<Stat>> stat(const std::string& path) const {
    auto v = tree_.stat(path);
    if (!v.is_ok()) return v.status();
    return ReadResult<Stat>{v.value(), node_->last_delivered()};
  }
  [[nodiscard]] DataTree& tree() { return tree_; }
  [[nodiscard]] ZabNode& node() { return *node_; }

 private:
  /// Speculative view of a path on the primary: applied state + effects of
  /// txns broadcast but not yet applied (ZooKeeper's ChangeRecord).
  struct ChangeRecord {
    bool exists = false;
    std::uint32_t version = 0;
    std::uint32_t cversion = 0;
    std::uint64_t owner = 0;        // ephemeral owner (0 = persistent)
    std::uint32_t outstanding = 0;  // txns in flight touching this path
  };

  using Overlay = std::map<std::string, ChangeRecord>;

  void handle_request(Bytes payload);  // leader-side prep
  /// Leader-side kReconfig resolution: delta -> full target config ->
  /// ZabNode::propose_reconfig. Validation failures answer through the
  /// pipeline as kError txns, like failed write preconditions.
  void handle_reconfig(const OpRequest& r);
  /// Validate one op against applied state + outstanding_ + overlay and
  /// produce its resolved txn (kError on failed precondition). On success
  /// the op's effects are folded into `overlay` so later ops of the same
  /// multi observe them.
  TreeTxn prep(const Op& op, NodeId origin, std::uint64_t req_id,
               std::uint64_t session, Overlay& overlay);
  void on_deliver(const Txn& txn);
  void apply(const TreeTxn& t, Zxid zxid);
  void apply_one(const TreeTxn& t, Zxid zxid);
  [[nodiscard]] ChangeRecord speculative(const std::string& path,
                                         const Overlay& overlay) const;
  void note_outstanding(const std::string& path, const ChangeRecord& cr);
  void record_outstanding_for(const TreeTxn& sub, const Overlay& overlay);
  void release_outstanding_for(const TreeTxn& sub);
  void complete(const TreeTxn& t, Zxid zxid, const Status& status);
  /// Answer one of this replica's own pending requests with an error.
  void fail_pending(std::uint64_t req_id, const Status& st);

  // --- Session internals ----------------------------------------------------
  /// Heartbeat-cadence hook, active leader only: lazily (re)builds the
  /// expiry tracker after a leadership change and proposes kCloseSession
  /// for every expired session.
  void leader_tick();
  void rebuild_tracker(TimePoint now);
  [[nodiscard]] std::uint64_t alloc_session_id();
  [[nodiscard]] std::uint32_t clamp_timeout(std::uint32_t requested_ms) const;
  /// Leader-side speculative bookkeeping after a successful broadcast
  /// (mirrors record_outstanding_for).
  void record_session_effects(const TreeTxn& sub);
  /// Replica-side bookkeeping at delivery: table gauge, dedup recording,
  /// and (on the leader) reconciling the speculative sets + tracker.
  void note_session_txn(const TreeTxn& t, Zxid zxid);

  ZabNode* node_;
  DataTree tree_;
  std::map<std::string, ChangeRecord> outstanding_;
  std::unordered_map<std::uint64_t, ResultFn> pending_;  // req_id -> cb
  std::uint64_t next_req_id_ = 1;

  // --- Session state --------------------------------------------------------
  SessionTracker tracker_;       // leader-only expiry clock
  bool tracker_valid_ = false;   // false until rebuilt on this leadership
  /// kCreateSession broadcast but not yet applied: already attachable.
  std::set<std::uint64_t> pending_sessions_;
  /// kCloseSession broadcast but not yet applied: no longer attachable —
  /// this is what makes the expiry-vs-reattach race deterministic.
  std::set<std::uint64_t> closing_sessions_;
  std::uint32_t session_counter_ = 0;  // low half of allocated ids
  AtomicCounter* c_sessions_created_ = nullptr;
  AtomicCounter* c_sessions_expired_ = nullptr;
  AtomicCounter* c_sessions_reattached_ = nullptr;
  Gauge* g_sessions_active_ = nullptr;
};

}  // namespace zab::pb
