// ZabNode: one replica running the Zab protocol (the paper's contribution).
//
// A ZabNode is a passive, single-threaded state machine. Its owner wires it
// to an Env (simulated or real) and feeds it messages via on_message(); the
// node reacts by sending messages, setting timers, appending to storage, and
// invoking the deliver handler. The same object implements all roles; it
// moves through the paper's phases:
//
//   Phase 0 (election)        Fast Leader Election: vote for the peer with
//                             the most recent history (currentEpoch, zxid, id).
//   Phase 1 (discovery)       CEPOCH / NEWEPOCH / ACKEPOCH: establish an
//                             epoch e' newer than any a quorum has promised,
//                             and verify the leader's history is the latest.
//   Phase 2 (synchronization) DIFF/TRUNC/SNAP + NEWLEADER/ACK + UPTODATE:
//                             make a quorum's history identical to the
//                             leader's before any new proposal.
//   Phase 3 (broadcast)       PROPOSE/ACK/COMMIT two-phase pipeline, commits
//                             strictly in zxid order; the txns broadcast in
//                             one loop turn share one PROPOSEBATCH frame.
//
// Every logged but undelivered txn has exactly one record, an entry of
// `undelivered_` (zxid order, every role). The record carries the txn, its
// stage stamps and, on the leader that proposed it, the client context of
// its OpSpan; truncation, snapshot install and delivery drop a txn's whole
// state by dropping its record. On an active leader the records past the
// commit watermark are the outstanding proposals. ACKs are cumulative, so
// the leader counts a proposal's acks from one durable-ack zxid per
// follower (docs/PROTOCOL.md §6).
//
// Correctness notes mirrored from the paper are inline where they matter.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/clock_sync.h"
#include "common/env.h"
#include "common/metrics_registry.h"
#include "common/op_span.h"
#include "common/slow_log.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/txn.h"
#include "storage/zab_storage.h"
#include "zab/cluster_config.h"
#include "zab/config.h"
#include "zab/messages.h"

namespace zab {

class ZabNode {
 public:
  /// Called exactly once, in zxid order, for every committed transaction.
  using DeliverFn = std::function<void(const Txn&)>;
  /// Role/epoch transitions (LOOKING <-> FOLLOWING/LEADING).
  using StateFn = std::function<void(Role, Epoch)>;
  /// Application state for snapshots (serialize current state).
  using SnapshotProvider = std::function<Bytes()>;
  /// Replace application state from a snapshot (full state transfer).
  using SnapshotInstaller = std::function<void(Zxid, const Bytes&)>;
  /// Leader-side request processor (the paper's "primary executes client
  /// operations"): transforms an incoming request into zero or more
  /// broadcast() calls with idempotent txn payloads. Without one, requests
  /// are broadcast verbatim.
  using RequestFn = std::function<void(Bytes)>;
  /// Leader-only periodic hook, invoked at heartbeat cadence while this node
  /// is the active leader (after PINGs go out and quorum liveness is
  /// checked). The application drives primary-owned clocks from it — e.g.
  /// the session-expiry queue that proposes kCloseSession txns.
  using LeaderTickFn = std::function<void()>;
  /// Post-mortem sink, invoked at watchdog cadence with a freshly rendered
  /// flight-recorder bundle (see postmortem_bundle()); `stalled` is true on
  /// ticks that flagged a NEW commit/lag stall, so the sink can force an
  /// immediate crash-file dump on top of the rolling publish.
  using PostMortemFn = std::function<void(const std::string&, bool stalled)>;
  /// Invoked whenever a new cluster config activates on this node (reconfig
  /// txn delivered, snapshot installed, or recovery scan), with the config
  /// and the zxid it activated at.
  using ReconfigFn = std::function<void(const ClusterConfig&, Zxid)>;

  /// `metrics` is the node-wide registry the protocol publishes into; when
  /// null the node owns a private one (metrics() works either way). Sharing
  /// one registry with the transport and storage of the same node yields a
  /// single "zab.* / net.* / storage.*" namespace per replica.
  ZabNode(ZabConfig cfg, Env& env, storage::ZabStorage& storage,
          MetricsRegistry* metrics = nullptr);
  ~ZabNode();
  ZabNode(const ZabNode&) = delete;
  ZabNode& operator=(const ZabNode&) = delete;

  /// Handlers are additive: several observers (application, invariant
  /// checker, metrics) can subscribe; they run in registration order.
  void add_deliver_handler(DeliverFn fn) {
    deliver_handlers_.push_back(std::move(fn));
  }
  void add_state_handler(StateFn fn) {
    state_handlers_.push_back(std::move(fn));
  }
  void add_snapshot_installer(SnapshotInstaller fn) {
    snapshot_installers_.push_back(std::move(fn));
  }
  /// The snapshot provider is single (exactly one component owns the
  /// application state); the last call wins.
  void set_snapshot_provider(SnapshotProvider fn) {
    snapshot_provider_ = std::move(fn);
  }
  void set_request_handler(RequestFn fn) { request_handler_ = std::move(fn); }
  /// Single (one owner of the primary clock); the last call wins.
  void set_leader_tick_handler(LeaderTickFn fn) {
    leader_tick_handler_ = std::move(fn);
  }
  /// Single (one flight recorder per node); the last call wins.
  void set_postmortem_sink(PostMortemFn fn) {
    postmortem_sink_ = std::move(fn);
  }
  /// Additive, like deliver handlers.
  void add_reconfig_handler(ReconfigFn fn) {
    reconfig_handlers_.push_back(std::move(fn));
  }

  /// Recover local state from storage and start electing. Call once.
  void start();

  /// Cancel all timers; the node goes silent (used before destruction in
  /// threaded runtimes; simulated crashes use Env teardown instead).
  void shutdown();

  /// Feed a raw message from the wire. Malformed input is dropped.
  void on_message(NodeId from, std::span<const std::uint8_t> wire);

  /// Leader-only: broadcast an operation. Returns its zxid, kNotLeader if
  /// this node is not an active leader, kNotReady under back-pressure.
  Result<Zxid> broadcast(Bytes op);

  /// Any role: route an operation to the current leader (forwards when
  /// following). kNotReady when no leader is known.
  Status submit(Bytes op);

  /// Leader-only: broadcast a membership change (the complete target
  /// config). Stamps version and config_zxid, then rides the ordinary
  /// pipeline; until it commits, proposals at or after its zxid need ack
  /// quorums in BOTH the old and the new voter sets. One reconfiguration in
  /// flight at a time (kNotReady otherwise). The new config activates
  /// everywhere at delivery; a leader no longer in the new voter set steps
  /// down right after — on a fresh stack, the commit already on the wire.
  Result<Zxid> propose_reconfig(ClusterConfig target, NodeId origin,
                                std::uint64_t req_id);
  /// The active (committed, or latest-recovered-from-log) cluster config.
  [[nodiscard]] const ClusterConfig& cluster_config() const {
    return active_config_;
  }
  /// True while a proposed reconfiguration awaits commit (leader only).
  [[nodiscard]] bool reconfig_in_flight() const {
    return pending_config_.has_value();
  }

  // --- Introspection ----------------------------------------------------------
  [[nodiscard]] NodeId id() const { return cfg_.id; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] NodeId leader() const { return leader_; }
  /// Epoch this node operates in (currentEpoch once established).
  [[nodiscard]] Epoch epoch() const { return storage_->current_epoch(); }
  [[nodiscard]] Zxid last_logged() const { return last_logged_; }
  [[nodiscard]] Zxid last_committed() const { return commit_watermark_; }
  [[nodiscard]] Zxid last_delivered() const { return last_delivered_; }
  [[nodiscard]] bool is_active_leader() const {
    return role_ == Role::kLeading && phase_ == Phase::kBroadcast;
  }
  /// Proposals not yet committed (0 unless this node is the active leader).
  [[nodiscard]] std::size_t outstanding_proposals() const;
  [[nodiscard]] const ZabConfig& config() const { return cfg_; }
  [[nodiscard]] Env& env() { return *env_; }

  // --- Observability ----------------------------------------------------------
  [[nodiscard]] MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] trace::TraceRing& trace() { return trace_; }
  [[nodiscard]] const trace::TraceRing& trace() const { return trace_; }
  /// {"node":{...state...},"metrics":{...registry...}}, the "status" part of
  /// the flight-recorder bundle; call from the node's event-loop thread.
  [[nodiscard]] std::string mntr_json() const;
  /// Leader only: current clock-offset estimate per follower (remote minus
  /// local, ns), for followers with at least one PING/PONG sample. Feeds the
  /// cross-node trace merge; empty on non-leaders.
  [[nodiscard]] std::map<NodeId, std::int64_t> follower_clock_offsets() const;

  /// Quorum-aware readiness for the admin plane's /readyz. A node is ready
  /// when it can serve its role: an activated leader with a live voting
  /// quorum, or a follower in Broadcast phase. `reason` explains a not-ready
  /// verdict ("electing", "syncing", "establishing", "quorum-lost").
  struct Readiness {
    bool ready = false;
    const char* reason = "ok";
  };
  [[nodiscard]] Readiness readiness() const;

  /// One-line JSON flight-recorder bundle: mntr_json() + readiness + pipeline
  /// depths + the tail of the trace ring. Published to the FlightRecorder at
  /// watchdog cadence; call from the node's event-loop thread.
  [[nodiscard]] std::string postmortem_bundle() const;

  // --- Request latency attribution (OpSpan / SlowLog) -----------------------
  /// Invoked with every finalized span, after its histograms and slow-log
  /// admission. Single (last call wins); benches/tests use it to reconcile
  /// the per-stage decomposition against client-measured latency.
  using SpanObserverFn = std::function<void(const OpSpan&)>;
  void set_span_observer(SpanObserverFn fn) { span_observer_ = std::move(fn); }

  /// Attach client context to the span broadcast() opened for `z`: identity,
  /// op kind, payload size, and the wire-ingress stamp (back-dated into the
  /// trace ring as kClientRecv). No-op when the txn has no span (spans
  /// disabled, or a single-node ensemble delivered it inside broadcast()).
  void annotate_op_span(Zxid z, std::uint64_t session_id, std::uint64_t cxid,
                        std::int64_t ingress_ns, std::uint8_t op_kind,
                        const std::string& path, std::uint32_t payload_bytes);
  /// Stamp the reply hand-off (kClientReply) on the span of `z`. Called by
  /// the origin replica from its deliver handler, once the client response
  /// has left the loop; the span finalizes when the handlers return.
  void finish_op_span(Zxid z);

  /// Runtime toggle for span bookkeeping (on at construction). Decides, for
  /// ops proposed after the call, whether the client context is kept and
  /// the span finalized; in-flight spans still finalize. The stage stamps
  /// behind zab.stage.* are kept either way.
  void set_spans_enabled(bool on) { spans_enabled_ = on; }

  /// Ring of the slowest recent ops (threshold kSlowOpThreshold).
  /// Loop-owned, like the trace ring.
  [[nodiscard]] SlowLog& slow_log() { return slow_log_; }
  [[nodiscard]] const SlowLog& slow_log() const { return slow_log_; }

 private:
  // --- Common helpers (zab_node.cpp) ---
  void send_to(NodeId to, const Message& m);
  void broadcast_to_peers(const Message& m);
  void become(Role r, Phase p);
  void go_to_election();
  void cancel_phase_timers();
  /// raise_watermark(z), then deliver what it covers.
  void advance_watermark(Zxid z);
  /// Raise the commit watermark to `z`, stamping COMMIT on every live
  /// record it newly covers, whatever message carried it.
  void raise_watermark(Zxid z);
  /// Deliver the committed head of undelivered_. A call made while a
  /// delivery loop runs (a deliver handler re-entered broadcast() and the
  /// new txn committed at once) returns: the running loop delivers it.
  void try_deliver();
  void maybe_snapshot();
  void note_append_durable(Zxid z);
  [[nodiscard]] std::size_t quorum() const {
    return active_config_.quorum_size();
  }

  // --- Dynamic membership (zab_node.cpp) ---
  /// Activate `c` at `z` (idempotent by version); on an activated leader,
  /// every delivered config also re-arms its step-down check, whether or
  /// not it was already active. `committed` distinguishes a delivered
  /// reconfig txn from a snapshot/recovery adoption for the
  /// zab.reconfig.committed counter.
  void apply_cluster_config(const ClusterConfig& c, Zxid z, bool committed);
  /// The latest config in `log` (every logged txn, oldest first), the
  /// snapshot or the seed, committed or not: the newest by version, the
  /// earliest of equals in that order. Read at start() and after a TRUNC
  /// that cut below logged_config_; appends keep it current otherwise.
  [[nodiscard]] ClusterConfig scan_logged_config(
      const std::vector<Txn>& log) const;
  /// Keep logged_config_ current across the append of `t`.
  void note_logged(const Txn& t);
  /// The logged txns in (after, last_logged_], oldest first; nullopt when
  /// the storage could not read them all back (it logs why).
  [[nodiscard]] std::optional<std::vector<Txn>> read_log(Zxid after) const;
  /// Every logged txn. A replica whose log does not read back in full
  /// stops the process: it must not run on part of its history.
  [[nodiscard]] std::vector<Txn> read_whole_log() const;
  void refresh_config_gauges();

  // --- Election / Phase 0 (election.cpp) ---
  struct Vote {
    NodeId leader = kNoNode;
    Zxid zxid;
    Epoch epoch = kNoEpoch;
  };
  [[nodiscard]] static bool vote_gt(const Vote& a, const Vote& b);
  [[nodiscard]] Vote self_vote() const;
  void start_election();
  void broadcast_vote();
  void on_vote(NodeId from, const VoteMsg& m);
  void check_election_quorum();
  void finalize_election();
  void elected(NodeId leader_id);
  [[nodiscard]] VoteMsg current_vote_msg() const;

  // --- Follower side (zab_node.cpp) ---
  void follower_begin_discovery(NodeId leader_id);
  void follower_resync();
  void on_new_epoch(NodeId from, const NewEpochMsg& m);
  void on_trunc(NodeId from, const TruncMsg& m);
  void on_snap(NodeId from, SnapMsg m);
  void on_new_leader(NodeId from, const NewLeaderMsg& m);
  void follower_finish_sync();
  void on_up_to_date(NodeId from, const UpToDateMsg& m);
  void on_propose(NodeId from, ProposeMsg m);
  void on_propose_batch(NodeId from, ProposeBatchMsg m);
  /// How an appended entry participates in the ACK protocol. Sync-replay
  /// entries are covered by ACK-NEWLEADER; live entries get per-zxid
  /// tracing, and only the LAST entry of a live run sends the (cumulative)
  /// ACK — which covers its whole batch because appends complete in order.
  enum class AckMode : std::uint8_t { kSyncReplay, kLiveNoAck, kLiveAck };
  void append_follower_entry(Txn txn, AckMode mode, Epoch epoch);
  void on_commit(NodeId from, const CommitMsg& m);
  void on_ping(NodeId from, const PingMsg& m);
  [[nodiscard]] bool from_current_leader(NodeId from, Epoch epoch) const;

  // --- Leader side (leader.cpp) ---
  struct FollowerState {
    enum class Stage {
      kDiscovered,   // CEPOCH received
      kEpochAcked,   // ACKEPOCH received
      kSyncing,      // sync stream + NEWLEADER sent; receives new proposals
      kActive,       // ACKNEWLEADER received + UPTODATE sent
    };
    Stage stage = Stage::kDiscovered;
    Epoch accepted_epoch = kNoEpoch;
    Epoch current_epoch = kNoEpoch;
    Zxid last_zxid;
    TimePoint last_contact = 0;
    /// Durable-ack watermark: the highest zxid this follower's ACKs and
    /// PONGs reported logged. Only those raise it, never the log tail that
    /// CEPOCH/ACKEPOCH report in last_zxid (it may hold unforced appends).
    /// It survives a re-join (see on_cepoch).
    Zxid acked;
    /// When the sync stream to this follower started (-1: never). Late
    /// joins against an activated leader report zab.reconfig.join_sync_ns
    /// from it.
    TimePoint sync_started = -1;
    /// Clock-offset estimate from PING/PONG exchanges (remote minus local).
    clock_sync::OffsetEstimator clock;
  };
  /// True when `z` has ack quorums in every voter set it is answerable to:
  /// the active config, plus the pending one for proposals at or after the
  /// in-flight reconfig's zxid (joint quorum during the handoff window). A
  /// voter acked `z` when its durable-ack watermark covers it; the leader's
  /// own watermark is last_durable_.
  [[nodiscard]] bool proposal_quorum_met(Zxid z) const;

  void leader_begin_discovery();
  void on_cepoch(NodeId from, const CEpochMsg& m);
  void leader_try_new_epoch();
  void on_ack_epoch(NodeId from, const AckEpochMsg& m);
  void leader_sync_follower(NodeId f);
  void on_ack_new_leader(NodeId from, const AckNewLeaderMsg& m);
  void leader_try_activate();
  void leader_activate_follower(NodeId f);
  void on_ack(NodeId from, const AckMsg& m);
  /// A follower reported everything up to `upto` durably logged.
  void leader_record_acks(NodeId from, FollowerState& fs, Zxid upto);
  void on_pong(NodeId from, const PongMsg& m);
  void on_request(NodeId from, RequestMsg m);
  /// Send the parked batch as one PROPOSEBATCH frame, encoded once, to the
  /// syncing and active followers.
  void flush_propose_batch();
  /// Encode `m` once and send it to every active follower and, when
  /// `syncing`, to every follower whose sync stream has gone out too.
  void send_to_followers(const Message& m, bool syncing);
  /// Commit every quorum-acked head in zxid order. `acker` is the voter
  /// whose ack prompted the call; it is named in the kAck event of each
  /// proposal whose quorum it completed (kNoNode: no ack, nothing traced).
  void leader_try_commit(NodeId acker);
  void leader_heartbeat();
  void leader_check_quorum_liveness();
  [[nodiscard]] bool leader_epoch_valid(Epoch e) const;

  // --- Immutable wiring ---
  ZabConfig cfg_;
  Env* env_;
  storage::ZabStorage* storage_;
  std::vector<DeliverFn> deliver_handlers_;
  std::vector<StateFn> state_handlers_;
  std::vector<ReconfigFn> reconfig_handlers_;
  SnapshotProvider snapshot_provider_;
  std::vector<SnapshotInstaller> snapshot_installers_;
  RequestFn request_handler_;
  LeaderTickFn leader_tick_handler_;
  PostMortemFn postmortem_sink_;

  // --- Observability (see docs/PROTOCOL.md "Observability") ---
  void trace_stage(Zxid z, trace::Stage s, NodeId who);
  /// Leader, heartbeat cadence: refresh zab.follower.<id>.* lag gauges and
  /// the zab.quorum.* health gauges.
  void update_health_gauges(TimePoint now);
  /// How many committed txns `follower_last` trails `watermark` by (0 when
  /// caught up). Across an epoch boundary the count of older-epoch txns is
  /// unknown without a log walk, so the estimate is the current epoch's
  /// counter — a lower bound.
  [[nodiscard]] static std::uint64_t lag_zxids(Zxid follower_last,
                                               Zxid watermark);
  void watchdog_tick();
  void arm_watchdog();

  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none injected
  MetricsRegistry* metrics_;
  trace::TraceRing trace_;
  AtomicCounter* c_proposals_ = nullptr;
  AtomicCounter* c_commits_ = nullptr;
  AtomicCounter* c_delivered_ = nullptr;
  AtomicCounter* c_elections_ = nullptr;
  AtomicCounter* c_msgs_sent_ = nullptr;
  AtomicCounter* c_resyncs_ = nullptr;
  AtomicCounter* c_snapshots_ = nullptr;
  AtomicCounter* c_sync_trunc_ = nullptr;
  AtomicCounter* c_sync_snap_ = nullptr;
  Gauge* g_outstanding_ = nullptr;
  Histogram* h_propose_quorum_ = nullptr;
  Histogram* h_propose_commit_ = nullptr;
  Histogram* h_commit_deliver_ = nullptr;
  Histogram* h_propose_deliver_ = nullptr;
  Histogram* h_election_ = nullptr;
  Histogram* h_recovery_sync_ = nullptr;
  Gauge* g_election_last_ns_ = nullptr;
  Gauge* g_recovery_last_ns_ = nullptr;
  TimePoint election_started_ = -1;  // -1: no election in flight (t=0 is valid)
  TimePoint elected_time_ = -1;      // kElected stamp; closes at activation

  // --- Request latency attribution (see docs/PROTOCOL.md §13) ---
  /// Record stage histograms, admit to the slow log, notify the observer.
  void finalize_op_span(const OpSpan& sp);
  bool spans_enabled_ = true;
  SlowLog slow_log_;
  SpanObserverFn span_observer_;
  Histogram* h_op_stage_[kNumOpStages] = {};
  Histogram* h_op_total_ = nullptr;
  Gauge* g_slowlog_count_ = nullptr;
  Gauge* g_slowlog_threshold_us_ = nullptr;

  // --- Health watchdog (watchdog_tick) ---
  AtomicCounter* c_stall_commit_ = nullptr;
  AtomicCounter* c_stall_lag_ = nullptr;
  Gauge* g_commit_stalled_ = nullptr;
  Gauge* g_synced_followers_ = nullptr;
  Gauge* g_quorum_healthy_ = nullptr;
  TimerId watchdog_timer_ = kNoTimer;  // lives across elections; see shutdown()
  std::set<NodeId> lag_stalled_;             // followers currently lag-stalled
  TimePoint last_stall_log_ = -1;            // rate limit: 1 warn/s

  // --- Dynamic membership state ---
  /// The constructed member set (ZabConfig peers/observers), version 0.
  ClusterConfig seed_config_;
  /// What every quorum/membership decision evaluates against.
  ClusterConfig active_config_;
  /// The latest config that the log, the snapshot or the seed carries,
  /// committed or not (scan_logged_config()'s answer, kept current without
  /// reading the log). A leader's discovery activates it.
  ClusterConfig logged_config_;
  struct PendingReconfig {
    ClusterConfig config;
    Zxid zxid;  // the reconfig proposal's own zxid
  };
  /// Leader: the one reconfiguration allowed in flight.
  std::optional<PendingReconfig> pending_config_;
  AtomicCounter* c_reconfig_proposed_ = nullptr;
  AtomicCounter* c_reconfig_committed_ = nullptr;
  AtomicCounter* c_reconfig_aborted_ = nullptr;
  Histogram* h_reconfig_join_sync_ = nullptr;
  Gauge* g_reconfig_quorum_size_ = nullptr;
  Gauge* g_reconfig_version_ = nullptr;

  // --- Common state ---
  Role role_ = Role::kLooking;
  Phase phase_ = Phase::kElection;
  NodeId leader_ = kNoNode;
  Zxid last_logged_;          // cache of storage_->last_zxid()
  Zxid last_durable_;         // highest zxid whose append has synced
  Zxid commit_watermark_;     // highest zxid known committed
  Zxid last_delivered_;
  /// The one record of a logged, not yet delivered txn.
  struct InFlightTxn {
    Txn txn;
    /// Stage stamps, recv_ns to reply_ns. propose_ns is set only for a live
    /// txn (one this node proposed, or received as a live proposal); sync
    /// replays and recovered entries have none and record no stage. The
    /// client context and span.zxid (its "finalize me" mark) are set only
    /// by the leader that proposed the txn, with spans enabled.
    OpSpan span;
    bool stall_flagged = false;  // counted once by the commit-stall watchdog
  };
  std::deque<InFlightTxn> undelivered_;  // zxid order
  /// Index of the first record above `z`.
  [[nodiscard]] std::size_t first_record_after(Zxid z) const;
  /// The record of `z`, or null when it has none (delivered, truncated).
  [[nodiscard]] InFlightTxn* find_record(Zxid z);
  bool delivering_ = false;  // a try_deliver() loop is running
  std::size_t pending_appends_ = 0;
  std::uint64_t delivered_since_snapshot_ = 0;
  bool started_ = false;

  // --- Election state ---
  ElectionEpoch round_ = 0;
  Vote my_vote_;
  std::map<NodeId, Vote> election_votes_;  // LOOKING peers, current round
  std::map<NodeId, Vote> established_votes_;  // peers already FOLLOWING/LEADING
  TimerId finalize_timer_ = kNoTimer;
  TimerId rebroadcast_timer_ = kNoTimer;

  // --- Wire batching (see docs/PROTOCOL.md §14) ---
  Histogram* h_batch_size_ = nullptr;
  Histogram* h_batch_bytes_ = nullptr;
  AtomicCounter* c_ack_coalesced_ = nullptr;
  AtomicCounter* c_commit_coalesced_ = nullptr;
  /// Leader: txns accepted by broadcast() in this loop turn, not yet on the
  /// wire (they have their records and are handed to storage; only the
  /// fan-out waits for the zero-delay flush timer or the byte limit).
  std::vector<Txn> batch_;
  std::size_t batch_bytes_ = 0;
  TimerId batch_flush_timer_ = kNoTimer;
  /// Follower: highest zxid ACKed in the current epoch; an ACK is sent only
  /// when it would advance this watermark (dedup after resync replay).
  Zxid last_acked_;

  // --- Follower state ---
  TimePoint last_leader_contact_ = 0;
  TimerId follower_liveness_timer_ = kNoTimer;
  TimerId discovery_timer_ = kNoTimer;  // also used while syncing
  bool new_leader_pending_ = false;     // NEWLEADER seen, awaiting durability
  Epoch pending_new_leader_epoch_ = kNoEpoch;

  // --- Leader state ---
  Epoch establishing_epoch_ = kNoEpoch;  // e' being established / established
  bool new_epoch_sent_ = false;
  Zxid history_end_;  // leader's last zxid at discovery completion
  bool self_history_durable_ = false;
  bool activated_ = false;
  std::map<NodeId, FollowerState> followers_;
  std::set<NodeId> newleader_acks_;   // voting members (incl. self)
  std::set<NodeId> synced_observers_; // observers awaiting activation
  std::uint32_t next_counter_ = 0;
  TimerId heartbeat_timer_ = kNoTimer;
  TimePoint quorum_ok_since_ = 0;
};

}  // namespace zab
