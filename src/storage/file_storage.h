// File-backed ZabStorage (ZooKeeper-style on-disk layout).
//
// Directory layout:
//   epoch                 acceptedEpoch/currentEpoch, CRC'd, atomic rename
//   log.<zxid16hex>       log segment starting at that (packed) zxid
//   snap.<zxid16hex>      application snapshot covering up to that zxid
//
// Log record format (little-endian):
//   u32 payload_len | u32 masked_crc32c(payload) | payload
//   payload = u64 packed zxid | varint data_len | data
// Recovery scans segments in order and treats a short or CRC-failing record
// at the tail of the newest segment as a torn write (truncated there);
// corruption anywhere else is reported as an error.
//
// The full set of logged entries is mirrored in memory (ZooKeeper similarly
// keeps the committed log in memory); the disk is the durable record used to
// rebuild on open(). Two durability pipelines exist:
//
//   kSync (default)        append() writes and (with fsync enabled) forces
//                          the record before returning; on_durable fires
//                          inside append(). Deterministic — the simulator
//                          and most tests rely on this.
//   kGroupCommit           append() encodes the record, queues it, and
//                          returns. A dedicated log-sync thread drains the
//                          queue: one vectored write + ONE fsync per batch
//                          (ZooKeeper's group commit, paper §6), then hands
//                          the whole batch's on_durable callbacks back to
//                          the owner via the completion poster. Callbacks
//                          still fire in append order and only after the
//                          covering force. The in-memory mirror is updated
//                          at append() time, so last_zxid()/entries_in()
//                          already include the queued (pending) tail;
//                          truncate_after()/install_snapshot() drain the
//                          queue before touching files.
#pragma once

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "storage/fs_util.h"
#include "storage/zab_storage.h"

namespace zab::storage {

struct FileStorageOptions {
  std::string dir;
  /// Force appends to media before reporting durability. Disable only for
  /// benchmarks/examples where the OS page cache is an acceptable risk.
  bool fsync = true;
  /// Durability pipeline (see the header comment). One force covers at
  /// most 512 records or 1 MiB in kGroupCommit mode.
  enum class SyncMode { kSync, kGroupCommit };
  SyncMode sync_mode = SyncMode::kSync;
  /// Bench/test knob: when nonzero, each log force sleeps this long instead
  /// of calling fsync — a device with a fixed force latency. Lets the fsync
  /// policy bench compare force-each and group commit at identical simulated
  /// force cost on any filesystem.
  std::uint64_t simulated_force_ns = 0;
  /// Roll to a new segment when the active one exceeds this many bytes.
  std::size_t segment_bytes = 4u << 20;
  /// Optional shared registry; when set, appends/snapshots/truncates are
  /// counted under storage.* and append latency feeds storage.append_ns.
  /// Must outlive the FileStorage. Histograms follow the registry's
  /// owning-thread rule: they are recorded on the owner's thread (directly
  /// in kSync mode, via the completion poster in kGroupCommit mode).
  MetricsRegistry* metrics = nullptr;
  /// An fsync slower than this counts as a slow disk op: `zab.stall.fsync`
  /// is bumped and a rate-limited warning names the segment. 0 disables.
  /// Env override: ZAB_SLOW_FSYNC_MS (applied in open()).
  std::uint64_t slow_fsync_ns = 100'000'000;  // 100 ms
};

class FileStorage final : public ZabStorage {
 public:
  /// How group-commit completions reach the owner's event context: the
  /// poster is invoked (from the log-sync thread) with a dispatch closure
  /// that must run on the owner's loop, e.g. RuntimeEnv::post. Without a
  /// poster, completions are dispatched directly on the log-sync thread
  /// (callbacks must then be thread-safe — fine for benches, wrong for a
  /// ZabNode). Unused in kSync mode.
  using CompletionPoster = std::function<void(std::function<void()>)>;

  /// Opens (creating the directory if needed) and recovers existing state.
  static Result<std::unique_ptr<FileStorage>> open(FileStorageOptions opts);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  /// Wire the completion poster (kGroupCommit mode). Call before the first
  /// append whose callback must run on the owner's loop; thread-safe.
  void set_completion_poster(CompletionPoster poster);

  /// Block until every record queued so far is on stable storage and its
  /// durability callback has been dispatched (in append order, on the
  /// calling thread for callbacks not yet handed to the poster). No-op in
  /// kSync mode. Call from the owner's event context.
  void flush();

  // --- ZabStorage ------------------------------------------------------------
  [[nodiscard]] Epoch accepted_epoch() const override { return accepted_epoch_; }
  [[nodiscard]] Epoch current_epoch() const override { return current_epoch_; }
  Status set_accepted_epoch(Epoch e) override;
  Status set_current_epoch(Epoch e) override;

  void append(const Txn& txn, std::function<void()> on_durable) override;
  Status truncate_after(Zxid last_keep) override;
  [[nodiscard]] Zxid last_zxid() const override;
  [[nodiscard]] Zxid latest_at_or_below(Zxid z) const override;
  [[nodiscard]] bool covers(Zxid z) const override;
  [[nodiscard]] std::vector<Txn> entries_in(Zxid after,
                                            Zxid upto) const override;
  [[nodiscard]] Zxid first_logged() const override;

  Status save_snapshot(const Snapshot& snap) override;
  Status install_snapshot(const Snapshot& snap) override;
  [[nodiscard]] std::optional<Snapshot> snapshot() const override {
    return snap_;
  }
  void purge_log(std::size_t keep) override;

  /// Status of the last append's write path (append() itself is void to
  /// match the async interface; errors surface here and in logs). In
  /// kGroupCommit mode a sync-thread IO error is reported here on the next
  /// call from the owner thread.
  [[nodiscard]] Status last_io_status() const;

  /// Owner-thread only, like the mutators: reads the in-memory segment
  /// mirror (which includes the queued-but-not-yet-durable tail).
  [[nodiscard]] StorageInfo info() const override;

 private:
  explicit FileStorage(FileStorageOptions opts) : opts_(std::move(opts)) {
    if (opts_.metrics) {
      c_append_ops_ = &opts_.metrics->counter("storage.append_ops");
      c_append_bytes_ = &opts_.metrics->counter("storage.append_bytes");
      c_fsyncs_ = &opts_.metrics->counter("storage.fsyncs");
      c_snapshots_ = &opts_.metrics->counter("storage.snapshots_saved");
      c_truncates_ = &opts_.metrics->counter("storage.truncates");
      h_append_ns_ = &opts_.metrics->histogram("storage.append_ns");
      h_fsync_ns_ = &opts_.metrics->histogram("storage.fsync_ns");
      h_batch_records_ = &opts_.metrics->histogram("storage.sync_batch_records");
      h_queue_depth_ = &opts_.metrics->histogram("storage.sync_queue_depth");
      c_slow_fsync_ = &opts_.metrics->counter("zab.stall.fsync");
    }
  }

  struct Segment {
    Zxid start;  // zxid of first record
    std::string path;
    std::uint64_t bytes = 0;  // includes bytes still queued for write
    std::vector<Txn> entries;  // in-memory mirror, zxid-ordered; includes
                               // the not-yet-durable pending tail
  };

  /// One queued unit of log-sync work: either an encoded record with its
  /// durability callback, or a segment-roll marker (open `path` fresh).
  struct QueuedWrite {
    Bytes record;              // framed [len|crc|payload]; empty for rolls
    std::function<void()> cb;  // may be null
    bool roll = false;
    std::string path;  // roll only
  };

  /// One durable batch awaiting dispatch on the owner's context. Kept in a
  /// FIFO shared with the posted dispatch closures so completions run in
  /// append order no matter who dispatches (poster task or flush()).
  struct BatchDone {
    std::vector<std::function<void()>> cbs;
    std::uint64_t records = 0;
    std::uint64_t fsync_ns = 0;
    bool forced = false;           // batch ended with a log force
    Histogram* h_batch = nullptr;  // loop-owned; recorded at dispatch
    Histogram* h_fsync = nullptr;
  };
  /// Shared with posted closures via shared_ptr, so a dispatch task that
  /// outlives the FileStorage (loop teardown) stays memory-safe.
  struct CompletionQueue {
    std::mutex mu;
    std::deque<BatchDone> ready;
    std::mutex dispatch_mu;  // serializes dispatchers, preserving order
    static void dispatch(const std::shared_ptr<CompletionQueue>& q);
  };

  Status recover();
  Status recover_segment(Segment& seg, bool is_last);
  Status load_epoch_file();
  Status store_epoch_file();
  Status load_latest_snapshot();
  Status start_segment(Zxid start);
  /// Append one framed record ([len|crc|payload], encoded exactly once with
  /// the header patched in) to `out`.
  static void encode_record(BufWriter& out, const Txn& txn);
  Status write_record(const Txn& txn);
  Status rewrite_segment(Segment& seg);
  /// One log force: fsync(fd), or the configured simulated sleep.
  Status force_fd(int fd, std::uint64_t* took_ns);
  void note_slow_fsync(std::uint64_t t0, std::uint64_t took,
                       const std::string& path);
  void start_sync_thread();
  void sync_loop();
  /// Stop the sync thread after writing out everything queued. With
  /// `dispatch`, remaining completions run inline; without (destructor),
  /// they are dropped — their targets may already be gone.
  void quiesce(bool dispatch);
  [[nodiscard]] std::string segment_path(Zxid start) const;
  [[nodiscard]] std::string snap_path(Zxid z) const;
  [[nodiscard]] std::size_t total_entries() const;
  [[nodiscard]] bool group_commit() const {
    return opts_.sync_mode == FileStorageOptions::SyncMode::kGroupCommit;
  }

  FileStorageOptions opts_;
  std::vector<Segment> segments_;
  Fd active_fd_;  // kSync: owner thread; kGroupCommit: log-sync thread
                  // (handoffs synchronized through queue_mu_)
  std::optional<Snapshot> snap_;
  Epoch accepted_epoch_ = kNoEpoch;
  Epoch current_epoch_ = kNoEpoch;
  Status last_io_status_;  // kSync-mode errors (owner thread only)
  BufWriter scratch_;      // kSync-mode record scratch, reused across appends

  // --- Group-commit pipeline (kGroupCommit mode only) ---
  mutable std::mutex queue_mu_;  // guards this block + active_fd_ handoff
  std::condition_variable queue_cv_;  // work available / stop
  std::condition_variable drain_cv_;  // queue empty and no batch in flight
  std::deque<QueuedWrite> sync_queue_;
  bool batch_in_flight_ = false;
  bool stop_sync_ = false;
  Status async_io_status_;  // first sync-thread IO error, sticky
  CompletionPoster poster_;
  std::string sync_path_;  // active segment path, for slow-fsync warnings
  std::shared_ptr<CompletionQueue> completions_ =
      std::make_shared<CompletionQueue>();
  std::thread sync_thread_;

  AtomicCounter* c_append_ops_ = nullptr;
  AtomicCounter* c_append_bytes_ = nullptr;
  AtomicCounter* c_fsyncs_ = nullptr;
  AtomicCounter* c_snapshots_ = nullptr;
  AtomicCounter* c_truncates_ = nullptr;
  AtomicCounter* c_slow_fsync_ = nullptr;
  Histogram* h_append_ns_ = nullptr;
  Histogram* h_fsync_ns_ = nullptr;
  Histogram* h_batch_records_ = nullptr;
  Histogram* h_queue_depth_ = nullptr;
  std::uint64_t last_slow_fsync_log_ns_ = 0;  // rate limit: 1 warn/s (atomic
                                              // enough: single writer thread
                                              // per mode)
};

}  // namespace zab::storage
