#include "storage/file_storage.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/crc32c.h"
#include "common/logging.h"

namespace zab::storage {

namespace {

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::uint32_t kEpochMagic = 0x4f50455au;  // "ZEPO"
constexpr std::uint32_t kSnapMagic = 0x504e535au;   // "ZSNP"
constexpr std::uint32_t kFormatVersion = 1;
// Group commit: caps on the records and bytes one force covers.
constexpr std::size_t kMaxBatchRecords = 512;
constexpr std::size_t kMaxBatchBytes = 1u << 20;

std::string zxid_hex(Zxid z) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(z.packed()));
  return buf;
}

Status write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

/// Vectored write of the whole iovec array, resuming after partial writes.
/// Mutates `iov` in place (the consumed prefix is advanced).
Status writev_all(int fd, std::vector<::iovec>& iov) {
  std::size_t idx = 0;
  while (idx < iov.size()) {
    const auto cnt =
        static_cast<int>(std::min<std::size_t>(iov.size() - idx, 512));
    const ssize_t n = ::writev(fd, iov.data() + idx, cnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error(std::string("writev: ") + std::strerror(errno));
    }
    auto rem = static_cast<std::size_t>(n);
    while (rem > 0 && idx < iov.size()) {
      if (rem >= iov[idx].iov_len) {
        rem -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) + rem;
        iov[idx].iov_len -= rem;
        rem = 0;
      }
    }
  }
  return Status::ok();
}

}  // namespace

std::string FileStorage::segment_path(Zxid start) const {
  return opts_.dir + "/log." + zxid_hex(start);
}
std::string FileStorage::snap_path(Zxid z) const {
  return opts_.dir + "/snap." + zxid_hex(z);
}

Result<std::unique_ptr<FileStorage>> FileStorage::open(
    FileStorageOptions opts) {
  if (const char* ms = std::getenv("ZAB_SLOW_FSYNC_MS")) {
    opts.slow_fsync_ns = std::strtoull(ms, nullptr, 10) * 1'000'000ull;
  }
  ZAB_RETURN_IF_ERROR(make_dirs(opts.dir));
  std::unique_ptr<FileStorage> fs(new FileStorage(std::move(opts)));
  ZAB_RETURN_IF_ERROR(fs->recover());
  if (fs->group_commit()) fs->start_sync_thread();
  return fs;
}

FileStorage::~FileStorage() { quiesce(/*dispatch=*/false); }

// --- Recovery ----------------------------------------------------------------

Status FileStorage::recover() {
  ZAB_RETURN_IF_ERROR(load_epoch_file());
  ZAB_RETURN_IF_ERROR(load_latest_snapshot());

  auto names = list_dir(opts_.dir);
  if (!names.is_ok()) return names.status();
  for (const auto& name : names.value()) {
    if (name.rfind("log.", 0) != 0) continue;
    const std::string hex = name.substr(4);
    if (hex.size() != 16) continue;
    Segment seg;
    seg.start = Zxid::from_packed(std::strtoull(hex.c_str(), nullptr, 16));
    seg.path = opts_.dir + "/" + name;
    segments_.push_back(std::move(seg));
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.start < b.start; });

  for (std::size_t i = 0; i < segments_.size(); ++i) {
    ZAB_RETURN_IF_ERROR(
        recover_segment(segments_[i], i + 1 == segments_.size()));
  }
  // Drop segments that ended up empty (e.g. fully torn).
  std::erase_if(segments_, [this](const Segment& s) {
    if (!s.entries.empty()) return false;
    (void)remove_file(s.path);
    return true;
  });

  // Reopen the last segment for appending.
  if (!segments_.empty()) {
    active_fd_ = Fd(::open(segments_.back().path.c_str(),
                           O_WRONLY | O_APPEND | O_CLOEXEC));
    if (!active_fd_.valid()) {
      return Status::io_error("reopen active segment " + segments_.back().path);
    }
  }
  return Status::ok();
}

Status FileStorage::recover_segment(Segment& seg, bool is_last) {
  auto data_res = read_file(seg.path);
  if (!data_res.is_ok()) return data_res.status();
  const Bytes& data = data_res.value();

  std::size_t pos = 0;
  std::uint64_t valid_bytes = 0;
  while (pos + 8 <= data.size()) {
    std::uint32_t len = 0;
    std::uint32_t masked = 0;
    std::memcpy(&len, data.data() + pos, 4);
    std::memcpy(&masked, data.data() + pos + 4, 4);
    if (pos + 8 + len > data.size()) break;  // short record: torn tail
    const std::span<const std::uint8_t> payload(data.data() + pos + 8, len);
    if (crc32c_mask(crc32c(payload)) != masked) break;  // corrupt record
    BufReader r(payload);
    Txn t = decode_txn(r);
    if (!r.ok() || !r.at_end()) break;
    seg.entries.push_back(std::move(t));
    pos += 8 + len;
    valid_bytes = pos;
  }

  if (valid_bytes != data.size()) {
    if (!is_last) {
      return Status::corruption("corrupt record in non-final segment " +
                                seg.path);
    }
    // Torn write at the tail of the newest segment: expected after a crash.
    ZAB_WARN() << "truncating torn tail of " << seg.path << " at "
               << valid_bytes << "/" << data.size();
    ZAB_RETURN_IF_ERROR(truncate_file(seg.path, valid_bytes));
  }
  seg.bytes = valid_bytes;
  return Status::ok();
}

Status FileStorage::load_epoch_file() {
  const std::string path = opts_.dir + "/epoch";
  if (!file_exists(path)) return Status::ok();
  auto data = read_file(path);
  if (!data.is_ok()) return data.status();
  BufReader r(data.value());
  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  const Epoch accepted = r.u32();
  const Epoch current = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok() || magic != kEpochMagic || version != kFormatVersion) {
    return Status::corruption("bad epoch file header");
  }
  BufWriter w;
  w.u32(magic);
  w.u32(version);
  w.u32(accepted);
  w.u32(current);
  if (crc32c(w.data()) != crc) return Status::corruption("epoch file CRC");
  accepted_epoch_ = accepted;
  current_epoch_ = current;
  return Status::ok();
}

Status FileStorage::store_epoch_file() {
  BufWriter w;
  w.u32(kEpochMagic);
  w.u32(kFormatVersion);
  w.u32(accepted_epoch_);
  w.u32(current_epoch_);
  const std::uint32_t crc = crc32c(w.data());
  w.u32(crc);
  return atomic_write_file(opts_.dir + "/epoch", w.data(), opts_.fsync);
}

Status FileStorage::load_latest_snapshot() {
  auto names = list_dir(opts_.dir);
  if (!names.is_ok()) return names.status();
  Zxid best = Zxid::zero();
  std::string best_path;
  for (const auto& name : names.value()) {
    if (name.rfind("snap.", 0) != 0) continue;
    const std::string hex = name.substr(5);
    if (hex.size() != 16) continue;
    const Zxid z = Zxid::from_packed(std::strtoull(hex.c_str(), nullptr, 16));
    if (best_path.empty() || z > best) {
      best = z;
      best_path = opts_.dir + "/" + name;
    }
  }
  if (best_path.empty()) return Status::ok();
  auto data = read_file(best_path);
  if (!data.is_ok()) return data.status();
  BufReader r(data.value());
  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  const Zxid z = r.zxid();
  Bytes state = r.bytes();
  const std::uint32_t crc = r.u32();
  if (!r.ok() || magic != kSnapMagic || version != kFormatVersion) {
    return Status::corruption("bad snapshot header " + best_path);
  }
  BufWriter w;
  w.u32(magic);
  w.u32(version);
  w.zxid(z);
  w.bytes(state);
  if (crc32c(w.data()) != crc) {
    // A torn snapshot is ignored; an older one (or none) still gives a
    // correct, if slower, recovery.
    ZAB_WARN() << "ignoring snapshot with bad CRC: " << best_path;
    return Status::ok();
  }
  snap_ = Snapshot{z, std::move(state)};
  return Status::ok();
}

// --- Epochs --------------------------------------------------------------------

Status FileStorage::set_accepted_epoch(Epoch e) {
  accepted_epoch_ = e;
  return store_epoch_file();
}
Status FileStorage::set_current_epoch(Epoch e) {
  current_epoch_ = e;
  return store_epoch_file();
}

// --- Log write path --------------------------------------------------------------

void FileStorage::encode_record(BufWriter& out, const Txn& txn) {
  // Reserve the [len|crc] header, encode the payload in place, then patch —
  // one buffer, one pass, no copy.
  const std::size_t base = out.size();
  out.u32(0);
  out.u32(0);
  encode_txn(out, txn);
  const auto len = static_cast<std::uint32_t>(out.size() - base - 8);
  out.patch_u32(base, len);
  const std::span<const std::uint8_t> payload(out.data().data() + base + 8,
                                              len);
  out.patch_u32(base + 4, crc32c_mask(crc32c(payload)));
}

Status FileStorage::force_fd(int fd, std::uint64_t* took_ns) {
  const std::uint64_t t0 = mono_ns();
  if (opts_.simulated_force_ns != 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(opts_.simulated_force_ns));
  } else if (::fsync(fd) != 0) {
    return Status::io_error("fsync segment");
  }
  if (c_fsyncs_) c_fsyncs_->add();
  if (took_ns) *took_ns = mono_ns() - t0;
  return Status::ok();
}

void FileStorage::note_slow_fsync(std::uint64_t t0, std::uint64_t took,
                                  const std::string& path) {
  if (opts_.slow_fsync_ns == 0 || took < opts_.slow_fsync_ns) return;
  if (c_slow_fsync_) c_slow_fsync_->add();
  if (t0 - last_slow_fsync_log_ns_ >= 1'000'000'000ull) {
    last_slow_fsync_log_ns_ = t0;
    ZAB_WARN() << "slow fsync: " << took / 1'000'000 << " ms on " << path
               << " (threshold " << opts_.slow_fsync_ns / 1'000'000 << " ms)";
  }
}

Status FileStorage::start_segment(Zxid start) {
  Segment seg;
  seg.start = start;
  seg.path = segment_path(start);
  active_fd_ = Fd(::open(seg.path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (!active_fd_.valid()) {
    return Status::io_error("create segment " + seg.path);
  }
  segments_.push_back(std::move(seg));
  return Status::ok();
}

Status FileStorage::write_record(const Txn& txn) {
  scratch_.clear();
  encode_record(scratch_, txn);
  ZAB_RETURN_IF_ERROR(write_all(active_fd_.get(), scratch_.data()));
  if (opts_.fsync) {
    const std::uint64_t t0 = mono_ns();
    std::uint64_t took = 0;
    ZAB_RETURN_IF_ERROR(force_fd(active_fd_.get(), &took));
    if (h_fsync_ns_) h_fsync_ns_->record(took);
    note_slow_fsync(t0, took, segments_.back().path);
  }
  segments_.back().bytes += scratch_.size();
  if (c_append_bytes_) c_append_bytes_->add(scratch_.size());
  return Status::ok();
}

void FileStorage::append(const Txn& txn, std::function<void()> on_durable) {
  const std::uint64_t t0 = h_append_ns_ ? mono_ns() : 0;
  if (!group_commit()) {
    Status st;
    if (segments_.empty() || segments_.back().bytes >= opts_.segment_bytes) {
      st = start_segment(txn.zxid);
    }
    if (st.is_ok()) st = write_record(txn);
    if (st.is_ok()) {
      segments_.back().entries.push_back(txn);
      last_io_status_ = Status::ok();
      if (c_append_ops_) c_append_ops_->add();
      if (h_append_ns_) h_append_ns_->record(mono_ns() - t0);
      if (on_durable) on_durable();
    } else {
      // The durability callback never fires; the caller's ACK is withheld,
      // which is the correct protocol-level response to a dead disk.
      last_io_status_ = st;
      ZAB_ERROR() << "append failed: " << st.to_string();
    }
    return;
  }

  // Group commit: encode once into an owned buffer, update the in-memory
  // mirror immediately (the pending tail is visible to last_zxid/entries_in),
  // and queue the record for the log-sync thread. Durability is reported
  // later, through the completion queue, in append order.
  BufWriter rec(txn.data.size() + 32);
  encode_record(rec, txn);
  const std::size_t rec_bytes = rec.size();

  const bool roll =
      segments_.empty() || segments_.back().bytes >= opts_.segment_bytes;
  if (roll) {
    Segment seg;
    seg.start = txn.zxid;
    seg.path = segment_path(txn.zxid);
    segments_.push_back(std::move(seg));
  }
  Segment& seg = segments_.back();
  seg.entries.push_back(txn);
  seg.bytes += rec_bytes;
  if (c_append_ops_) c_append_ops_->add();
  if (c_append_bytes_) c_append_bytes_->add(rec_bytes);

  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (roll) {
      QueuedWrite rw;
      rw.roll = true;
      rw.path = seg.path;
      sync_queue_.push_back(std::move(rw));
    }
    QueuedWrite qw;
    qw.record = std::move(rec).take();
    qw.cb = std::move(on_durable);
    sync_queue_.push_back(std::move(qw));
    depth = sync_queue_.size();
  }
  queue_cv_.notify_one();
  if (h_queue_depth_) h_queue_depth_->record(depth);
  if (h_append_ns_) h_append_ns_->record(mono_ns() - t0);
}

// --- Group-commit pipeline ---------------------------------------------------

void FileStorage::set_completion_poster(CompletionPoster poster) {
  std::lock_guard<std::mutex> lk(queue_mu_);
  poster_ = std::move(poster);
}

void FileStorage::start_sync_thread() {
  sync_path_ = segments_.empty() ? "" : segments_.back().path;
  sync_thread_ = std::thread([this] { sync_loop(); });
}

void FileStorage::sync_loop() {
  std::unique_lock<std::mutex> lk(queue_mu_);
  while (true) {
    queue_cv_.wait(lk, [this] { return stop_sync_ || !sync_queue_.empty(); });
    if (sync_queue_.empty()) {
      if (stop_sync_) return;
      continue;
    }

    // Form one batch: up to the configured caps, never across a segment
    // roll (one covering force per fd). A roll marker at the queue head is
    // consumed here — the new segment file is created under the lock so the
    // fd handoff stays synchronized with the owner thread.
    std::vector<QueuedWrite> batch;
    std::size_t batch_bytes = 0;
    while (!sync_queue_.empty() && batch.size() < kMaxBatchRecords &&
           batch_bytes < kMaxBatchBytes) {
      QueuedWrite& front = sync_queue_.front();
      if (front.roll) {
        if (!batch.empty()) break;
        active_fd_ = Fd(::open(front.path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                               0644));
        if (!active_fd_.valid() && async_io_status_.is_ok()) {
          async_io_status_ = Status::io_error("create segment " + front.path);
          ZAB_ERROR() << "group commit: " << async_io_status_.to_string();
        }
        sync_path_ = front.path;
        sync_queue_.pop_front();
        continue;
      }
      batch_bytes += front.record.size();
      batch.push_back(std::move(front));
      sync_queue_.pop_front();
    }
    if (batch.empty()) {  // only roll markers were queued
      if (sync_queue_.empty()) drain_cv_.notify_all();
      continue;
    }

    const int fd = active_fd_.get();
    Status st = async_io_status_;
    if (st.is_ok() && fd < 0) st = Status::io_error("no active segment");
    const std::string seg_path = sync_path_;
    CompletionPoster poster = poster_;
    batch_in_flight_ = true;
    lk.unlock();

    // IO happens outside the lock: the owner thread keeps appending.
    std::uint64_t fsync_ns = 0;
    if (st.is_ok()) {
      std::vector<::iovec> iov;
      iov.reserve(batch.size());
      for (const QueuedWrite& q : batch) {
        iov.push_back({const_cast<std::uint8_t*>(q.record.data()),
                       q.record.size()});
      }
      st = writev_all(fd, iov);
    }
    if (st.is_ok() && opts_.fsync) {
      const std::uint64_t t0 = mono_ns();
      st = force_fd(fd, &fsync_ns);
      if (st.is_ok()) note_slow_fsync(t0, fsync_ns, seg_path);
    }

    if (st.is_ok()) {
      BatchDone done;
      done.records = batch.size();
      done.fsync_ns = fsync_ns;
      done.forced = opts_.fsync;
      done.h_batch = h_batch_records_;
      done.h_fsync = h_fsync_ns_;
      for (QueuedWrite& q : batch) {
        if (q.cb) done.cbs.push_back(std::move(q.cb));
      }
      {
        std::lock_guard<std::mutex> g(completions_->mu);
        completions_->ready.push_back(std::move(done));
      }
      // Hand the callbacks back to the owner's loop; without a poster the
      // batch dispatches right here on the sync thread.
      if (poster) {
        auto q = completions_;
        poster([q] { CompletionQueue::dispatch(q); });
      } else {
        CompletionQueue::dispatch(completions_);
      }
    } else {
      // Callbacks withheld: the ACKs they would trigger must not be sent for
      // records that are not durable. The error is sticky and surfaces via
      // last_io_status().
      ZAB_ERROR() << "group-commit batch failed: " << st.to_string();
    }

    lk.lock();
    if (!st.is_ok() && async_io_status_.is_ok()) async_io_status_ = st;
    batch_in_flight_ = false;
    if (sync_queue_.empty()) drain_cv_.notify_all();
  }
}

void FileStorage::CompletionQueue::dispatch(
    const std::shared_ptr<CompletionQueue>& q) {
  // dispatch_mu serializes dispatchers (posted tasks, flush, quiesce) so
  // batches — and callbacks within a batch — run in append order. Durability
  // callbacks must not re-enter flush()/truncate_after().
  std::lock_guard<std::mutex> serial(q->dispatch_mu);
  while (true) {
    BatchDone done;
    {
      std::lock_guard<std::mutex> g(q->mu);
      if (q->ready.empty()) return;
      done = std::move(q->ready.front());
      q->ready.pop_front();
    }
    if (done.h_batch) done.h_batch->record(done.records);
    if (done.forced && done.h_fsync) done.h_fsync->record(done.fsync_ns);
    for (auto& cb : done.cbs) cb();
  }
}

void FileStorage::flush() {
  if (!group_commit()) return;
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    drain_cv_.wait(lk, [this] {
      return sync_queue_.empty() && !batch_in_flight_;
    });
  }
  // Everything queued is on disk; run any completions not yet dispatched by
  // the poster so callers observe all callbacks fired, in order.
  CompletionQueue::dispatch(completions_);
}

void FileStorage::quiesce(bool dispatch) {
  if (!sync_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stop_sync_ = true;
  }
  queue_cv_.notify_one();
  sync_thread_.join();  // drains the queue before exiting
  if (dispatch) {
    CompletionQueue::dispatch(completions_);
  } else {
    // Destructor path: callback targets may already be destroyed.
    std::lock_guard<std::mutex> g(completions_->mu);
    completions_->ready.clear();
  }
}

Status FileStorage::last_io_status() const {
  if (group_commit()) {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (!async_io_status_.is_ok()) return async_io_status_;
  }
  return last_io_status_;
}

ZabStorage::StorageInfo FileStorage::info() const {
  StorageInfo i;
  i.segments = segments_.size();
  for (const auto& seg : segments_) {
    i.log_entries += seg.entries.size();
    i.log_bytes += seg.bytes;
  }
  if (snap_) {
    i.snapshot_zxid = snap_->last_included.packed();
    i.snapshot_bytes = snap_->state.size();
  }
  return i;
}

Status FileStorage::rewrite_segment(Segment& seg) {
  BufWriter out;
  for (const Txn& t : seg.entries) encode_record(out, t);
  ZAB_RETURN_IF_ERROR(atomic_write_file(seg.path, out.data(), opts_.fsync));
  seg.bytes = out.size();
  return Status::ok();
}

Status FileStorage::truncate_after(Zxid last_keep) {
  // Group commit: make the whole pending tail durable and dispatch its
  // callbacks first. Canceling queued records instead would break callers
  // that count outstanding appends, and dropping already-acknowledged
  // records would lose data the truncation means to keep. After the drain
  // the sync thread is idle and the segment files are stable.
  flush();
  if (c_truncates_) c_truncates_->add();
  active_fd_.reset();
  while (!segments_.empty() && segments_.back().start > last_keep) {
    ZAB_RETURN_IF_ERROR(remove_file(segments_.back().path));
    segments_.pop_back();
  }
  if (!segments_.empty()) {
    Segment& seg = segments_.back();
    const std::size_t before = seg.entries.size();
    while (!seg.entries.empty() && seg.entries.back().zxid > last_keep) {
      seg.entries.pop_back();
    }
    if (seg.entries.empty()) {
      ZAB_RETURN_IF_ERROR(remove_file(seg.path));
      segments_.pop_back();
    } else if (seg.entries.size() != before) {
      ZAB_RETURN_IF_ERROR(rewrite_segment(seg));
    }
  }
  if (!segments_.empty()) {
    active_fd_ = Fd(::open(segments_.back().path.c_str(),
                           O_WRONLY | O_APPEND | O_CLOEXEC));
    if (!active_fd_.valid()) return Status::io_error("reopen after truncate");
  }
  if (group_commit()) {
    // The sync thread reopens from a roll marker on the next segment roll;
    // until then it appends through the fd installed here. Publish the new
    // active path for slow-fsync attribution.
    std::lock_guard<std::mutex> lk(queue_mu_);
    sync_path_ = segments_.empty() ? "" : segments_.back().path;
  }
  return Status::ok();
}

// --- Log read path ----------------------------------------------------------------

Zxid FileStorage::last_zxid() const {
  if (!segments_.empty() && !segments_.back().entries.empty()) {
    return segments_.back().entries.back().zxid;
  }
  if (snap_) return snap_->last_included;
  return Zxid::zero();
}

Zxid FileStorage::latest_at_or_below(Zxid z) const {
  Zxid best = Zxid::zero();
  if (snap_ && snap_->last_included <= z) best = snap_->last_included;
  for (const auto& seg : segments_) {
    if (seg.start > z) break;
    for (const auto& t : seg.entries) {
      if (t.zxid > z) break;
      best = std::max(best, t.zxid);
    }
  }
  return best;
}

bool FileStorage::covers(Zxid z) const {
  if (z == Zxid::zero()) return true;
  if (snap_ && snap_->last_included == z) return true;
  return latest_at_or_below(z) == z && z != Zxid::zero();
}

std::vector<Txn> FileStorage::entries_in(Zxid after, Zxid upto) const {
  std::vector<Txn> out;
  for (const auto& seg : segments_) {
    for (const auto& t : seg.entries) {
      if (t.zxid > after && t.zxid <= upto) out.push_back(t);
    }
  }
  return out;
}

Zxid FileStorage::first_logged() const {
  for (const auto& seg : segments_) {
    if (!seg.entries.empty()) return seg.entries.front().zxid;
  }
  return Zxid::max();
}

std::size_t FileStorage::total_entries() const {
  std::size_t n = 0;
  for (const auto& seg : segments_) n += seg.entries.size();
  return n;
}

// --- Snapshots ------------------------------------------------------------------------

Status FileStorage::save_snapshot(const Snapshot& snap) {
  BufWriter w;
  w.u32(kSnapMagic);
  w.u32(kFormatVersion);
  w.zxid(snap.last_included);
  w.bytes(snap.state);
  w.u32(crc32c(w.data()));
  ZAB_RETURN_IF_ERROR(
      atomic_write_file(snap_path(snap.last_included), w.data(), opts_.fsync));
  snap_ = snap;
  if (c_snapshots_) c_snapshots_->add();
  return Status::ok();
}

Status FileStorage::install_snapshot(const Snapshot& snap) {
  flush();  // same drain discipline as truncate_after
  ZAB_RETURN_IF_ERROR(save_snapshot(snap));
  // The local log is obsolete: a snapshot install replaces history.
  active_fd_.reset();
  for (auto& seg : segments_) {
    ZAB_RETURN_IF_ERROR(remove_file(seg.path));
  }
  segments_.clear();
  return Status::ok();
}

void FileStorage::purge_log(std::size_t keep) {
  if (!snap_) return;
  flush();  // old-segment records may still be queued
  while (segments_.size() > 1) {
    const Segment& first = segments_.front();
    if (first.entries.empty() ||
        first.entries.back().zxid > snap_->last_included) {
      break;
    }
    if (total_entries() - first.entries.size() < keep) break;
    (void)remove_file(first.path);
    segments_.erase(segments_.begin());
  }
}

}  // namespace zab::storage
