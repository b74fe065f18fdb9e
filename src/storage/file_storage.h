// File-backed ZabStorage (ZooKeeper-style on-disk layout).
//
// Directory layout:
//   epoch                 acceptedEpoch/currentEpoch, CRC'd, atomic rename
//   log.<zxid16hex>       log segment starting at that (packed) zxid
//   log.prep              the next segment, being zero-filled (never read)
//   snap.<zxid16hex>      application snapshot covering up to that zxid
//
// Log record format (little-endian):
//   u32 payload_len | u32 masked_crc32c(payload) | payload
//   payload = u64 packed zxid | varint data_len | data
// Recovery scans segments in order. In the newest segment, a zero record
// header followed only by zeros is the unused tail of a prepared segment:
// the records end there and appends continue there. Anything else after the
// last valid record of the newest segment is a torn write (truncated there);
// corruption anywhere else is reported as an error.
//
// The full set of logged entries is mirrored in memory (ZooKeeper similarly
// keeps the committed log in memory); the disk is the durable record used to
// rebuild on open(). There is one write path: append() updates the mirror,
// encodes the record once into a queue, and a drain writes queued records at
// the active segment's used length, one write and ONE force per batch
// (ZooKeeper's group commit, paper §6). The sync mode only says who drains:
//
//   kSync (default)        the caller, inline: on_durable fires inside
//                          append(). Deterministic — the simulator and most
//                          tests rely on this.
//   kGroupCommit           a dedicated log-sync thread, which hands each
//                          batch's on_durable callbacks back to the owner via
//                          the completion poster. Callbacks still fire in
//                          append order and only after the covering force;
//                          truncate_after()/install_snapshot() drain the
//                          queue before touching files.
//
// A log force is fdatasync. When forces are real (fsync on, no simulated
// force), the log-sync thread zero-fills and forces the next segment while it
// is idle, so that forces of records inside it change no file metadata; a
// roll renames it into place and forces the directory before the first force
// that covers a record in it.
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
  /// Who drains the write queue (see the header comment). One force covers
  /// at most 512 records or 1 MiB.
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
  /// storage.fsyncs and storage.fsync_ns count log forces only; segment
  /// preparation, which runs on the log-sync thread, is counted in the
  /// counters storage.segments_prepared and storage.prepare_ns.
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
  /// calling thread for callbacks not yet handed to the poster). Returns at
  /// once in kSync mode, where append() drains. Call from the owner's event
  /// context.
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

  /// Status of the write path: its first IO error, sticky (append() itself
  /// is void to match the async interface; errors surface here and in
  /// logs). Records after the error are never reported durable.
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
      c_segments_prepared_ =
          &opts_.metrics->counter("storage.segments_prepared");
      c_prepare_ns_ = &opts_.metrics->counter("storage.prepare_ns");
    }
  }

  struct Segment {
    Zxid start;  // zxid of first record
    std::string path;
    std::uint64_t bytes = 0;  // includes bytes still queued for write
    std::vector<Txn> entries;  // in-memory mirror, zxid-ordered; includes
                               // the not-yet-durable pending tail
  };

  /// One queued record: where its bytes end in the queue's byte buffer,
  /// its durability callback, and the segment it opens, if any.
  struct QueuedWrite {
    std::size_t end = 0;
    std::function<void()> cb;  // may be null
    std::string roll_path;     // non-empty: start this segment first
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
    void run();  // record the histograms, then fire the callbacks
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
  /// Append one framed record ([len|crc|payload], encoded exactly once with
  /// the header patched in) to `out`.
  static void encode_record(BufWriter& out, const Txn& txn);
  Status rewrite_segment(Segment& seg);
  /// Open `seg` for writing at its used length; records land there.
  Status reopen_active(const Segment& seg);
  /// Write out everything queued at the active segment's used length: one
  /// write and one force per run of records (capped, never across a roll).
  /// Called with `lk` held, by the log-sync thread or inline by append() in
  /// kSync mode; IO runs unlocked.
  void drain(std::unique_lock<std::mutex>& lk);
  /// Start segment `path`: the prepared file if it is complete, else a new
  /// file that grows as records land.
  Status roll_to(const std::string& path);
  /// One log force: fdatasync(fd), or the configured simulated sleep.
  Status force_fd(int fd, std::uint64_t* took_ns);
  /// Zero-fill at most one chunk of the next segment, and force it once
  /// full. Log-sync thread only, while its queue is empty.
  void prepare_step();
  [[nodiscard]] bool real_forces() const {
    return opts_.fsync && opts_.simulated_force_ns == 0;
  }
  void note_slow_fsync(std::uint64_t t0, std::uint64_t took,
                       const std::string& path);
  void start_sync_thread();
  void sync_loop();
  /// Stop the sync thread after writing out everything queued. With
  /// `dispatch`, remaining completions run inline; without (destructor),
  /// they are dropped — their targets may already be gone.
  void quiesce(bool dispatch);
  [[nodiscard]] std::string segment_path(Zxid start) const;
  [[nodiscard]] std::string prep_path() const { return opts_.dir + "/log.prep"; }
  [[nodiscard]] std::string snap_path(Zxid z) const;
  [[nodiscard]] std::size_t total_entries() const;
  [[nodiscard]] bool group_commit() const {
    return opts_.sync_mode == FileStorageOptions::SyncMode::kGroupCommit;
  }

  FileStorageOptions opts_;
  std::vector<Segment> segments_;
  std::optional<Snapshot> snap_;
  Epoch accepted_epoch_ = kNoEpoch;
  Epoch current_epoch_ = kNoEpoch;

  // --- The write queue ---
  mutable std::mutex queue_mu_;  // guards this block
  std::condition_variable queue_cv_;  // work available / stop
  std::condition_variable drain_cv_;  // queue empty and no batch in flight
  BufWriter queued_;                  // queued records, back to back
  std::vector<QueuedWrite> sync_queue_;
  bool batch_in_flight_ = false;
  bool stop_sync_ = false;
  Status io_status_;  // first write-path IO error, sticky
  CompletionPoster poster_;
  std::shared_ptr<CompletionQueue> completions_ =
      std::make_shared<CompletionQueue>();

  // --- Drain side: whoever drains (log-sync thread, or the kSync caller).
  // The owner touches it only while the drain is idle (open(), and after
  // flush() in truncate_after()/install_snapshot()).
  BufWriter batch_bytes_;  // swapped with queued_, reused
  std::vector<QueuedWrite> batch_;
  Fd active_fd_;
  std::uint64_t write_off_ = 0;  // used length of the active segment
  std::string sync_path_;        // active segment path, for slow-fsync warnings
  bool dir_dirty_ = false;  // a roll's directory entry is not yet forced
  // Segment preparation (log-sync thread only): armed by the first roll.
  bool prepare_armed_ = false;
  Fd prep_fd_;
  std::uint64_t prep_len_ = 0;  // zero bytes written to log.prep
  bool prepared_ = false;       // log.prep is full and forced

  AtomicCounter* c_append_ops_ = nullptr;
  AtomicCounter* c_append_bytes_ = nullptr;
  AtomicCounter* c_fsyncs_ = nullptr;
  AtomicCounter* c_snapshots_ = nullptr;
  AtomicCounter* c_truncates_ = nullptr;
  AtomicCounter* c_slow_fsync_ = nullptr;
  AtomicCounter* c_segments_prepared_ = nullptr;
  AtomicCounter* c_prepare_ns_ = nullptr;
  Histogram* h_append_ns_ = nullptr;
  Histogram* h_fsync_ns_ = nullptr;
  Histogram* h_batch_records_ = nullptr;
  Histogram* h_queue_depth_ = nullptr;
  std::uint64_t last_slow_fsync_log_ns_ = 0;  // rate limit: 1 warn/s (drain
                                              // side only)
  std::thread sync_thread_;  // last: it uses every member above
};

}  // namespace zab::storage
