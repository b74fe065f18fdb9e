#include "storage/file_storage.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
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
// Caps on the records and bytes one force covers.
constexpr std::size_t kMaxBatchRecords = 512;
constexpr std::size_t kMaxBatchBytes = 1u << 20;
// Segment preparation writes zeros from one page, at most 16 of them (64
// KiB) per step: a record queued meanwhile waits for at most one step.
constexpr std::uint8_t kZeroPage[4096] = {};
constexpr std::size_t kPrepareChunkPages = 16;

std::string zxid_hex(Zxid z) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(z.packed()));
  return buf;
}

/// Write all of `data` at offset `off`, resuming after partial writes.
Status pwrite_all(int fd, std::span<const std::uint8_t> data, std::uint64_t off) {
  while (!data.empty()) {
    const ssize_t n =
        ::pwrite(fd, data.data(), data.size(), static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error(std::string("write: ") + std::strerror(errno));
    }
    data = data.subspan(static_cast<std::size_t>(n));
    off += static_cast<std::uint64_t>(n);
  }
  return Status::ok();
}

/// The record decoder, shared by recovery, truncation and reads: calls
/// fn(zxid, data) for each record of a segment image in order, and stops at
/// the first record that is short, fails its CRC or does not decode, or
/// that fn refuses (returns false). Returns the end offset of the last
/// record fn accepted.
template <typename Fn>
std::size_t scan_records(std::span<const std::uint8_t> image, Fn&& fn) {
  std::size_t pos = 0;
  while (pos + 8 <= image.size()) {
    std::uint32_t len = 0;
    std::uint32_t masked = 0;
    std::memcpy(&len, image.data() + pos, 4);
    std::memcpy(&masked, image.data() + pos + 4, 4);
    if (pos + 8 + len > image.size()) break;  // short record: torn tail
    const auto payload = image.subspan(pos + 8, len);
    if (crc32c_mask(crc32c(payload)) != masked) break;  // corrupt record
    BufReader r(payload);
    const Zxid z = r.zxid();
    const auto data = r.raw(static_cast<std::size_t>(r.varint()));
    if (!r.ok() || !r.at_end() || !fn(z, data)) break;
    pos += 8 + len;
  }
  return pos;
}

}  // namespace

void FileStorage::Segment::add(Zxid z) {
  if (runs.empty() || runs.back().last().next_in_epoch() != z) {
    runs.push_back({z, 0});
  }
  ++runs.back().count;
  ++records;
}

std::string FileStorage::segment_path(Zxid start) const {
  return opts_.dir + "/log." + zxid_hex(start);
}
std::string FileStorage::snap_path(Zxid z) const {
  return opts_.dir + "/snap." + zxid_hex(z);
}

Result<std::unique_ptr<FileStorage>> FileStorage::open(
    FileStorageOptions opts) {
  ZAB_RETURN_IF_ERROR(make_dirs(opts.dir));
  std::unique_ptr<FileStorage> fs(new FileStorage(std::move(opts)));
  ZAB_RETURN_IF_ERROR(fs->recover());
  if (fs->group_commit()) fs->start_sync_thread();
  return fs;
}

FileStorage::~FileStorage() {
  quiesce(/*dispatch=*/false);
  std::lock_guard<std::mutex> serial(completions_->dispatch_mu);
  completions_->owner = nullptr;
}

// --- Recovery ----------------------------------------------------------------

Status FileStorage::recover() {
  (void)remove_file(prep_path());  // a half-prepared segment is worthless
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
    if (s.records != 0) return false;
    (void)remove_file(s.path);
    return true;
  });
  return load_active();
}

Status FileStorage::recover_segment(Segment& seg, bool is_last) {
  auto data_res = index_segment(seg, Zxid::max(), /*mirror=*/false);
  if (!data_res.is_ok()) return data_res.status();
  const Bytes& data = data_res.value();
  const std::uint64_t valid_bytes = seg.bytes;

  // Zeros to the end: the unused tail of a prepared segment, where appends
  // continue (unless the segment is full and the next append rolls).
  const bool zero_tail = std::all_of(data.begin() + valid_bytes, data.end(),
                                     [](std::uint8_t b) { return b == 0; });
  if (valid_bytes != data.size() &&
      (!zero_tail || !is_last || valid_bytes >= opts_.segment_bytes)) {
    if (!is_last) {
      return Status::corruption("corrupt record in non-final segment " +
                                seg.path);
    }
    // Torn write at the tail of the newest segment: expected after a crash.
    // Truncating drops any zero tail too, so no stale bytes lie past the
    // next appends.
    if (!zero_tail) {
      ZAB_WARN() << "truncating torn tail of " << seg.path << " at "
                 << valid_bytes << "/" << data.size();
    }
    ZAB_RETURN_IF_ERROR(truncate_file(seg.path, valid_bytes));
  }
  return Status::ok();
}

Result<Bytes> FileStorage::index_segment(Segment& seg, Zxid upto,
                                         bool mirror) {
  auto image = read_file(seg.path);
  if (!image.is_ok()) return image.status();
  seg.runs.clear();
  seg.records = 0;
  seg.bytes = scan_records(
      image.value(), [&](Zxid z, std::span<const std::uint8_t> data) {
        if (z > upto) return false;
        seg.add(z);
        if (mirror) mirror_.push_back(Txn{z, Bytes(data.begin(), data.end())});
        return true;
      });
  if (mirror) {
    ++mirrored_segments_;
    mirror_bytes_ += seg.bytes;
  }
  return image;
}

Status FileStorage::load_active() {
  mirror_.clear();
  mirrored_segments_ = 0;
  mirror_bytes_ = 0;
  active_fd_.reset();
  Status st = Status::ok();
  if (!segments_.empty() && segments_.back().bytes < opts_.segment_bytes) {
    // Appends continue at the used length, inside any zero tail. A file
    // that does not reopen or read back the records its index lists stays
    // unmirrored, which counts as closed: reads of it stop where it does
    // not read back, and the next append rolls.
    const Segment& seg = segments_.back();
    Segment reread = seg;
    active_fd_ = Fd(::open(seg.path.c_str(), O_WRONLY | O_CLOEXEC));
    st = active_fd_.valid()
             ? index_segment(reread, Zxid::max(), /*mirror=*/true).status()
             : Status::io_error("reopen " + seg.path);
    if (st.is_ok() &&
        (reread.records != seg.records || reread.bytes != seg.bytes)) {
      st = Status::corruption("segment " + seg.path + " does not read back");
    }
    if (!st.is_ok()) {
      mirror_.clear();
      mirrored_segments_ = 0;
      mirror_bytes_ = 0;
      active_fd_.reset();
    }
    write_off_ = seg.bytes;
    sync_path_ = seg.path;
  }
  if (g_mirror_bytes_) g_mirror_bytes_->set(static_cast<std::int64_t>(mirror_bytes_));
  return st;
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
  } else if (::fdatasync(fd) != 0) {
    return Status::io_error("fdatasync segment");
  }
  if (c_fsyncs_) c_fsyncs_->add();
  if (took_ns) *took_ns = mono_ns() - t0;
  return Status::ok();
}

void FileStorage::note_slow_fsync(std::uint64_t t0, std::uint64_t took,
                                  const std::string& path) {
  if (took < kSlowFsyncNs) return;
  if (c_slow_fsync_) c_slow_fsync_->add();
  if (t0 - last_slow_fsync_log_ns_ >= 1'000'000'000ull) {
    last_slow_fsync_log_ns_ = t0;
    ZAB_WARN() << "slow fsync: " << took / 1'000'000 << " ms on " << path
               << " (threshold " << kSlowFsyncNs / 1'000'000 << " ms)";
  }
}

void FileStorage::append(const Txn& txn, std::function<void()> on_durable) {
  const std::uint64_t t0 = h_append_ns_ ? mono_ns() : 0;
  // The index and the mirror take the txn at once (the pending tail is
  // visible to last_zxid/entries_in), and the record is encoded once, into
  // the queue. A roll starts a new mirrored segment; an unmirrored newest
  // segment counts as closed.
  const bool roll = mirrored_segments_ == 0 ||
                    segments_.back().bytes >= opts_.segment_bytes;
  if (roll) {
    Segment& fresh = segments_.emplace_back();
    fresh.start = txn.zxid;
    fresh.path = segment_path(txn.zxid);
    ++mirrored_segments_;
  }
  Segment& seg = segments_.back();
  seg.add(txn.zxid);
  mirror_.push_back(txn);
  ++appended_;  // before the drain can count it written
  std::unique_lock<std::mutex> lk(queue_mu_);
  const std::size_t rec_start = queued_.size();
  encode_record(queued_, txn);
  const std::size_t rec_bytes = queued_.size() - rec_start;
  QueuedWrite& q = sync_queue_.emplace_back();
  q.end = queued_.size();
  if (roll) q.roll_path = seg.path;
  const std::size_t depth = sync_queue_.size();
  if (group_commit()) {
    // Durability is reported later, through the completion queue.
    q.cb = std::move(on_durable);
    lk.unlock();
    queue_cv_.notify_one();
  } else {
    drain(lk);
    // After an IO error the callback never fires; the caller's ACK is
    // withheld, which is the correct protocol-level response to a dead disk.
    if (!io_status_.is_ok()) on_durable = nullptr;
    lk.unlock();
  }
  seg.bytes += rec_bytes;
  mirror_bytes_ += rec_bytes;
  release_mirror();
  if (c_append_ops_) c_append_ops_->add();
  if (c_append_bytes_) c_append_bytes_->add(rec_bytes);
  if (h_queue_depth_) h_queue_depth_->record(depth);
  if (h_append_ns_) h_append_ns_->record(mono_ns() - t0);
  if (!group_commit() && on_durable) on_durable();
}

// --- The drain, and segment preparation ------------------------------------

void FileStorage::set_completion_poster(CompletionPoster poster) {
  std::lock_guard<std::mutex> lk(queue_mu_);
  poster_ = std::move(poster);
}

void FileStorage::start_sync_thread() {
  sync_thread_ = std::thread([this] { sync_loop(); });
  pthread_setname_np(sync_thread_.native_handle(), "zab-log");
}

void FileStorage::sync_loop() {
  std::unique_lock<std::mutex> lk(queue_mu_);
  while (true) {
    if (!sync_queue_.empty()) {
      drain(lk);
    } else if (stop_sync_) {
      return;
    } else if (prepare_armed_ && !prepared_) {
      // Idle: prepare the next segment, one chunk at a time, re-checking
      // the queue and the stop flag in between.
      lk.unlock();
      prepare_step();
      lk.lock();
    } else {
      queue_cv_.wait(lk, [this] { return stop_sync_ || !sync_queue_.empty(); });
    }
  }
}

void FileStorage::drain(std::unique_lock<std::mutex>& lk) {
  std::swap(queued_, batch_bytes_);
  batch_.swap(sync_queue_);
  Status st = io_status_;
  const CompletionPoster poster = group_commit() ? poster_ : nullptr;
  batch_in_flight_ = true;
  lk.unlock();

  // IO happens outside the lock, so that in group commit the owner keeps
  // appending. Each run is one write at the segment's used length and one
  // force, and never crosses a roll.
  std::size_t i = 0;
  std::size_t from = 0;  // byte offset of record i in batch_bytes_
  while (i < batch_.size()) {
    if (!batch_[i].roll_path.empty() && st.is_ok()) {
      st = roll_to(batch_[i].roll_path);
    }
    std::size_t j = i + 1;
    while (j < batch_.size() && batch_[j].roll_path.empty() &&
           j - i < kMaxBatchRecords && batch_[j - 1].end - from < kMaxBatchBytes) {
      ++j;
    }
    const std::size_t to = batch_[j - 1].end;
    if (st.is_ok()) {
      st = pwrite_all(active_fd_.get(),
                      std::span(batch_bytes_.data()).subspan(from, to - from),
                      write_off_);
    }
    if (st.is_ok()) {
      write_off_ += to - from;
      written_ += j - i;
    }
    if (st.is_ok() && dir_dirty_) {
      // The roll's directory entry must be durable before any record in the
      // new segment is acknowledged.
      st = fsync_dir(opts_.dir);
      dir_dirty_ = false;
    }
    BatchDone done;
    if (st.is_ok() && opts_.fsync) {
      const std::uint64_t t0 = mono_ns();
      st = force_fd(active_fd_.get(), &done.fsync_ns);
      if (st.is_ok()) note_slow_fsync(t0, done.fsync_ns, sync_path_);
    }
    if (!st.is_ok()) {
      // Callbacks withheld: the ACKs they would trigger must not be sent for
      // records that are not durable. The error is sticky and surfaces via
      // last_io_status().
      ZAB_ERROR() << "log write failed: " << st.to_string();
      break;
    }
    done.records = j - i;
    done.forced = opts_.fsync;
    done.h_batch = h_batch_records_;
    done.h_fsync = h_fsync_ns_;
    for (; i < j; ++i) {
      if (batch_[i].cb) done.cbs.push_back(std::move(batch_[i].cb));
    }
    from = to;
    if (!group_commit()) {
      done.run();  // the kSync caller is the owner
      continue;
    }
    {
      std::lock_guard<std::mutex> g(completions_->mu);
      completions_->ready.push_back(std::move(done));
    }
    // Hand the callbacks back to the owner's loop; without a poster the
    // batch dispatches right here on the sync thread.
    if (poster) {
      auto q = completions_;
      poster([q] { CompletionQueue::dispatch(q, /*on_owner=*/true); });
    } else {
      CompletionQueue::dispatch(completions_);
    }
  }
  // Reuse both buffers, unless a burst made the byte buffer large.
  if (batch_bytes_.size() > kMaxBatchBytes) batch_bytes_ = BufWriter();
  batch_bytes_.clear();
  batch_.clear();

  lk.lock();
  if (!st.is_ok() && io_status_.is_ok()) io_status_ = st;
  batch_in_flight_ = false;
  if (sync_queue_.empty()) drain_cv_.notify_all();
}

Status FileStorage::roll_to(const std::string& path) {
  // The first roll arms preparation (read only by the log-sync thread).
  if (active_fd_.valid() && real_forces()) prepare_armed_ = true;
  if (prepared_ && ::rename(prep_path().c_str(), path.c_str()) == 0) {
    active_fd_ = std::move(prep_fd_);
    prepared_ = false;
    prep_len_ = 0;
  } else {
    active_fd_ = Fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644));
    if (!active_fd_.valid()) return Status::io_error("create segment " + path);
  }
  write_off_ = 0;
  sync_path_ = path;
  dir_dirty_ = real_forces();
  return Status::ok();
}

void FileStorage::prepare_step() {
  const std::uint64_t t0 = mono_ns();
  if (!prep_fd_.valid()) {
    prep_fd_ = Fd(::open(prep_path().c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  }
  std::array<::iovec, kPrepareChunkPages> iov;
  std::size_t left = opts_.segment_bytes - prep_len_;
  std::size_t n = 0;
  for (; n < iov.size() && left > 0; ++n) {
    iov[n] = {const_cast<std::uint8_t*>(kZeroPage),
              std::min(left, sizeof(kZeroPage))};
    left -= iov[n].iov_len;
  }
  const ssize_t wrote =
      prep_fd_.valid() ? ::pwritev(prep_fd_.get(), iov.data(), static_cast<int>(n),
                                   static_cast<off_t>(prep_len_))
                       : -1;
  if (wrote > 0) {
    // Write the step back and wait: the closing fdatasync then waits for
    // little, and a journal commit (ext4's ordered mode first writes out
    // every dirty block it allocated; any file's force may start one)
    // never waits behind more than one step of zeros.
    ::sync_file_range(prep_fd_.get(), static_cast<off_t>(prep_len_), wrote,
                      SYNC_FILE_RANGE_WAIT_BEFORE | SYNC_FILE_RANGE_WRITE |
                          SYNC_FILE_RANGE_WAIT_AFTER);
    prep_len_ += static_cast<std::uint64_t>(wrote);
  }
  if (wrote <= 0 || (prep_len_ >= opts_.segment_bytes &&
                     ::fdatasync(prep_fd_.get()) != 0)) {
    // Rolls then create their segments, as without preparation.
    ZAB_WARN() << "segment preparation failed: " << std::strerror(errno);
    prepare_armed_ = false;
  } else if (prep_len_ >= opts_.segment_bytes) {
    prepared_ = true;
    if (c_segments_prepared_) c_segments_prepared_->add();
  }
  if (c_prepare_ns_) c_prepare_ns_->add(mono_ns() - t0);
}

void FileStorage::BatchDone::run() {
  if (h_batch) h_batch->record(records);
  if (forced && h_fsync) h_fsync->record(fsync_ns);
  for (auto& cb : cbs) cb();
}

void FileStorage::CompletionQueue::dispatch(
    const std::shared_ptr<CompletionQueue>& q, bool on_owner) {
  // dispatch_mu serializes dispatchers (posted tasks, flush, quiesce) so
  // batches — and callbacks within a batch — run in append order. Durability
  // callbacks must not re-enter flush()/truncate_after().
  std::lock_guard<std::mutex> serial(q->dispatch_mu);
  while (true) {
    BatchDone done;
    {
      std::lock_guard<std::mutex> g(q->mu);
      if (q->ready.empty()) break;
      done = std::move(q->ready.front());
      q->ready.pop_front();
    }
    done.run();
  }
  if (on_owner && q->owner) q->owner->release_mirror();
}

void FileStorage::flush() {
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    drain_cv_.wait(lk, [this] {
      return sync_queue_.empty() && !batch_in_flight_;
    });
  }
  // Everything queued is on disk; run any completions not yet dispatched by
  // the poster so callers observe all callbacks fired, in order.
  CompletionQueue::dispatch(completions_);
  release_mirror();
}

void FileStorage::release_mirror() {
  // Records are written in append order, so the unwritten ones are the
  // newest: a segment is all written when they all lie past it.
  const std::uint64_t unwritten = appended_ - written_;
  while (mirrored_segments_ > 0) {
    const Segment& oldest = segments_[segments_.size() - mirrored_segments_];
    const bool active =
        mirrored_segments_ == 1 && oldest.bytes < opts_.segment_bytes;
    if (active || unwritten + oldest.records > mirror_.size()) break;
    mirror_.erase(mirror_.begin(),
                  mirror_.begin() + static_cast<std::ptrdiff_t>(oldest.records));
    mirror_bytes_ -= oldest.bytes;
    --mirrored_segments_;
  }
  if (g_mirror_bytes_) g_mirror_bytes_->set(static_cast<std::int64_t>(mirror_bytes_));
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
  std::lock_guard<std::mutex> lk(queue_mu_);
  return io_status_;
}

ZabStorage::StorageInfo FileStorage::info() const {
  StorageInfo i;
  i.fsync = opts_.fsync;
  i.group_commit = group_commit();
  i.segments = segments_.size();
  for (const auto& seg : segments_) {
    i.log_entries += seg.records;
    i.log_bytes += seg.bytes;
  }
  i.mirror_bytes = mirror_bytes_;
  if (snap_) {
    i.snapshot_zxid = snap_->last_included.packed();
    i.snapshot_bytes = snap_->state.size();
  }
  return i;
}

Status FileStorage::truncate_after(Zxid last_keep) {
  // Make the whole pending tail durable and dispatch its callbacks first.
  // Canceling queued records instead would break callers that count
  // outstanding appends, and dropping already-acknowledged records would
  // lose data the truncation means to keep. After the drain the sync thread
  // is idle and the segment files are stable.
  flush();
  if (c_truncates_) c_truncates_->add();
  if (segments_.empty() || segments_.back().last() <= last_keep) {
    return Status::ok();
  }
  const Status st = cut_after(last_keep);
  // Failed or not, the cut left the index matching the files.
  const Status active = load_active();
  return st.is_ok() ? active : st;
}

Status FileStorage::cut_after(Zxid last_keep) {
  // A segment leaves the index once its file is gone, and the cut segment
  // is re-indexed once its file is cut.
  while (!segments_.empty() && segments_.back().start > last_keep) {
    ZAB_RETURN_IF_ERROR(remove_file(segments_.back().path));
    segments_.pop_back();
  }
  if (segments_.empty() || segments_.back().last() <= last_keep) {
    return Status::ok();
  }
  // Cut the file at the first dropped record, and force the cut. The
  // segment keeps at least its first record, and every record kept must
  // read back: a cut never drops more than it is asked to.
  Segment& seg = segments_.back();
  Segment kept;
  kept.start = seg.start;
  kept.path = seg.path;
  auto image = index_segment(kept, last_keep, /*mirror=*/false);
  if (!image.is_ok()) return image.status();
  std::uint64_t want = 0;  // records of seg at or below last_keep
  for (const ZxidRun& r : seg.runs) {
    if (r.first > last_keep) break;
    want += r.last() <= last_keep ? r.count
                                  : last_keep.counter - r.first.counter + 1;
  }
  if (kept.records != want) {
    return Status::corruption("segment " + seg.path + " does not read back");
  }
  Fd fd(::open(seg.path.c_str(), O_WRONLY | O_CLOEXEC));
  if (!fd.valid() || ::ftruncate(fd.get(), static_cast<off_t>(kept.bytes)) != 0) {
    return Status::io_error("cut segment " + seg.path);
  }
  seg = std::move(kept);
  if (opts_.fsync && ::fsync(fd.get()) != 0) {
    return Status::io_error("force cut of " + seg.path);
  }
  return Status::ok();
}

// --- Log read path ----------------------------------------------------------------

Zxid FileStorage::last_zxid() const {
  if (!segments_.empty()) return segments_.back().last();
  if (snap_) return snap_->last_included;
  return Zxid::zero();
}

Zxid FileStorage::latest_at_or_below(Zxid z) const {
  Zxid best = Zxid::zero();
  if (snap_ && snap_->last_included <= z) best = snap_->last_included;
  // The answer is in the last run that starts at or below z.
  const auto seg = std::upper_bound(
      segments_.begin(), segments_.end(), z,
      [](Zxid v, const Segment& s) { return v < s.start; });
  if (seg == segments_.begin()) return best;
  const auto& runs = std::prev(seg)->runs;
  const auto run = std::upper_bound(
      runs.begin(), runs.end(), z,
      [](Zxid v, const ZxidRun& r) { return v < r.first; });
  return std::max(best, std::min(std::prev(run)->last(), z));
}

bool FileStorage::covers(Zxid z) const {
  if (z == Zxid::zero()) return true;
  if (snap_ && snap_->last_included == z) return true;
  return latest_at_or_below(z) == z && z != Zxid::zero();
}

std::vector<Txn> FileStorage::entries_in(Zxid after, Zxid upto) const {
  std::vector<Txn> out;
  // Closed segments past the mirror: every record is written, so their
  // files are stable. The read stops at one that does not read back in
  // full: what follows it would leave a gap.
  const auto closed_end =
      segments_.end() - static_cast<std::ptrdiff_t>(mirrored_segments_);
  for (auto seg = std::partition_point(
           segments_.begin(), closed_end,
           [after](const Segment& s) { return s.last() <= after; });
       seg != closed_end && seg->start <= upto; ++seg) {
    if (!read_segment(*seg, after, upto, out)) return out;
  }
  auto it = std::upper_bound(
      mirror_.begin(), mirror_.end(), after,
      [](Zxid v, const Txn& t) { return v < t.zxid; });
  for (; it != mirror_.end() && it->zxid <= upto; ++it) out.push_back(*it);
  return out;
}

bool FileStorage::read_segment(const Segment& seg, Zxid after, Zxid upto,
                               std::vector<Txn>& out) const {
  auto image = read_file(seg.path);
  if (!image.is_ok()) {
    ZAB_ERROR() << "log read failed: " << image.status().to_string();
    return false;
  }
  const std::size_t before = out.size();
  bool past = false;  // stopped at a record above upto
  const std::size_t end = scan_records(
      std::span<const std::uint8_t>(image.value())
          .first(std::min<std::size_t>(image.value().size(), seg.bytes)),
      [&](Zxid z, std::span<const std::uint8_t> data) {
        past = z > upto;
        if (z > after && !past) out.push_back({z, Bytes(data.begin(), data.end())});
        return !past;
      });
  if (c_log_read_entries_) c_log_read_entries_->add(out.size() - before);
  if (!past && end != seg.bytes) {
    ZAB_ERROR() << "log read of " << seg.path << " stopped at byte " << end
                << "/" << seg.bytes;
    return false;
  }
  return true;
}

Zxid FileStorage::first_logged() const {
  return segments_.empty() ? Zxid::max() : segments_.front().start;
}

std::size_t FileStorage::total_entries() const {
  std::size_t n = 0;
  for (const auto& seg : segments_) n += seg.records;
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
  // The local log is obsolete: a snapshot install replaces history. A
  // segment leaves the index once its file is gone.
  Status st = Status::ok();
  while (st.is_ok() && !segments_.empty()) {
    st = remove_file(segments_.back().path);
    if (st.is_ok()) segments_.pop_back();
  }
  const Status active = load_active();
  return st.is_ok() ? active : st;
}

void FileStorage::purge_log(std::size_t keep) {
  if (!snap_) return;
  flush();  // old-segment records may still be queued
  // Only closed segments past the mirror go (all of them after a clean
  // flush; a failed write keeps its segments mirrored).
  while (segments_.size() > std::max<std::size_t>(1, mirrored_segments_)) {
    const Segment& first = segments_.front();
    if (first.last() > snap_->last_included) break;
    if (total_entries() - first.records < keep) break;
    // A segment leaves the index once its file is gone, so the files left
    // stay one run of the log.
    if (!remove_file(first.path).is_ok()) break;
    segments_.erase(segments_.begin());
  }
}

}  // namespace zab::storage
