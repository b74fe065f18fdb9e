// Unit tests for the storage substrate: in-memory and file-backed logs,
// epoch metadata, snapshots, torn-write recovery, truncation, purge.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/metrics_registry.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"

namespace zab::storage {
namespace {

Txn txn(Epoch e, std::uint32_t c, const std::string& payload = "x") {
  return Txn{Zxid{e, c}, to_bytes(payload)};
}

// ============================ MemStorage =====================================

TEST(MemStorage, AppendAndRead) {
  MemStorage s;
  int durable = 0;
  s.append(txn(1, 1), [&] { ++durable; });
  s.append(txn(1, 2), [&] { ++durable; });
  EXPECT_EQ(durable, 2);  // default scheduler: immediate durability
  EXPECT_EQ(s.last_zxid(), (Zxid{1, 2}));
  EXPECT_EQ(s.first_logged(), (Zxid{1, 1}));
  const auto entries = s.entries_in(Zxid::zero(), Zxid::max());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].zxid, (Zxid{1, 1}));
}

TEST(MemStorage, EntriesInRangeSemantics) {
  MemStorage s;
  for (std::uint32_t c = 1; c <= 5; ++c) s.append(txn(1, c), nullptr);
  // (after, upto] semantics.
  auto mid = s.entries_in(Zxid{1, 2}, Zxid{1, 4});
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0].zxid, (Zxid{1, 3}));
  EXPECT_EQ(mid[1].zxid, (Zxid{1, 4}));
  EXPECT_TRUE(s.entries_in(Zxid{1, 5}, Zxid::max()).empty());
}

TEST(MemStorage, TruncateAfter) {
  MemStorage s;
  for (std::uint32_t c = 1; c <= 5; ++c) s.append(txn(1, c), nullptr);
  ASSERT_TRUE(s.truncate_after(Zxid{1, 3}).is_ok());
  EXPECT_EQ(s.last_zxid(), (Zxid{1, 3}));
  EXPECT_FALSE(s.covers(Zxid{1, 4}));
  EXPECT_TRUE(s.covers(Zxid{1, 3}));
}

TEST(MemStorage, LatestAtOrBelowFindsSyncPoint) {
  MemStorage s;
  s.append(txn(1, 1), nullptr);
  s.append(txn(1, 2), nullptr);
  s.append(txn(3, 1), nullptr);  // epoch jump (epoch 2 had no txns)
  EXPECT_EQ(s.latest_at_or_below(Zxid{1, 2}), (Zxid{1, 2}));
  EXPECT_EQ(s.latest_at_or_below(Zxid{2, 9}), (Zxid{1, 2}));
  EXPECT_EQ(s.latest_at_or_below(Zxid{0, 5}), Zxid::zero());
  EXPECT_EQ(s.latest_at_or_below(Zxid::max()), (Zxid{3, 1}));
}

TEST(MemStorage, EpochsPersist) {
  MemStorage s;
  ASSERT_TRUE(s.set_accepted_epoch(5).is_ok());
  ASSERT_TRUE(s.set_current_epoch(4).is_ok());
  EXPECT_EQ(s.accepted_epoch(), 5u);
  EXPECT_EQ(s.current_epoch(), 4u);
}

TEST(MemStorage, CrashDropsNonDurableTail) {
  MemStorage s;
  std::vector<std::function<void()>> queued;
  s.set_scheduler([&queued](std::size_t, std::function<void()> cb) {
    queued.push_back(std::move(cb));  // nothing durable until we say so
  });
  s.append(txn(1, 1), nullptr);
  s.append(txn(1, 2), nullptr);
  queued[0]();  // only the first write reached the disk
  s.crash_volatile();
  EXPECT_EQ(s.last_zxid(), (Zxid{1, 1}));
}

TEST(MemStorage, SnapshotInstallReplacesLog) {
  MemStorage s;
  for (std::uint32_t c = 1; c <= 5; ++c) s.append(txn(1, c), nullptr);
  ASSERT_TRUE(
      s.install_snapshot(Snapshot{Zxid{2, 10}, to_bytes("state")}).is_ok());
  EXPECT_EQ(s.last_zxid(), (Zxid{2, 10}));
  EXPECT_EQ(s.log_size(), 0u);
  ASSERT_TRUE(s.snapshot().has_value());
  EXPECT_EQ(s.snapshot()->state, to_bytes("state"));
  EXPECT_TRUE(s.covers(Zxid{2, 10}));
}

TEST(MemStorage, PurgeKeepsTrailingEntries) {
  MemStorage s;
  for (std::uint32_t c = 1; c <= 10; ++c) s.append(txn(1, c), nullptr);
  ASSERT_TRUE(s.save_snapshot(Snapshot{Zxid{1, 8}, {}}).is_ok());
  s.purge_log(4);
  // Keeps >= 4 entries; never drops entries beyond the snapshot.
  EXPECT_GE(s.log_size(), 4u);
  EXPECT_EQ(s.first_logged(), (Zxid{1, 7}));
  EXPECT_EQ(s.last_zxid(), (Zxid{1, 10}));
}

// ============================ FileStorage =====================================

class FileStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/zab_fs_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    (void)remove_dir_recursive(dir_);
  }
  void TearDown() override { (void)remove_dir_recursive(dir_); }

  std::unique_ptr<FileStorage> open(bool fsync = false,
                                    std::size_t segment_bytes = 1024) {
    FileStorageOptions opts;
    opts.dir = dir_;
    opts.fsync = fsync;
    opts.segment_bytes = segment_bytes;
    auto r = FileStorage::open(opts);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return r.is_ok() ? std::move(r).take() : nullptr;
  }

  std::string dir_;
};

TEST_F(FileStorageTest, AppendAndRecover) {
  {
    auto fs = open();
    for (std::uint32_t c = 1; c <= 10; ++c) {
      fs->append(txn(1, c, "payload-" + std::to_string(c)), nullptr);
    }
    ASSERT_TRUE(fs->set_accepted_epoch(3).is_ok());
    ASSERT_TRUE(fs->set_current_epoch(2).is_ok());
  }
  auto fs = open();
  EXPECT_EQ(fs->last_zxid(), (Zxid{1, 10}));
  EXPECT_EQ(fs->accepted_epoch(), 3u);
  EXPECT_EQ(fs->current_epoch(), 2u);
  const auto all = fs->entries_in(Zxid::zero(), Zxid::max());
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[4].data, to_bytes("payload-5"));
}

TEST_F(FileStorageTest, RollsSegments) {
  auto fs = open(false, /*segment_bytes=*/128);
  for (std::uint32_t c = 1; c <= 50; ++c) {
    fs->append(txn(1, c, std::string(32, 'a')), nullptr);
  }
  fs.reset();
  // Multiple log segments on disk.
  auto names = list_dir(dir_);
  ASSERT_TRUE(names.is_ok());
  int segs = 0;
  for (const auto& n : names.value()) {
    if (n.rfind("log.", 0) == 0) ++segs;
  }
  EXPECT_GT(segs, 3);
  auto fs2 = open(false, 128);
  EXPECT_EQ(fs2->last_zxid(), (Zxid{1, 50}));
  EXPECT_EQ(fs2->entries_in(Zxid::zero(), Zxid::max()).size(), 50u);
}

TEST_F(FileStorageTest, TornTailIsDroppedOnRecovery) {
  std::string seg_path;
  {
    auto fs = open();
    for (std::uint32_t c = 1; c <= 5; ++c) fs->append(txn(1, c), nullptr);
  }
  // Append garbage (a torn write) to the newest segment.
  auto names = list_dir(dir_);
  ASSERT_TRUE(names.is_ok());
  for (const auto& n : names.value()) {
    if (n.rfind("log.", 0) == 0) seg_path = dir_ + "/" + n;
  }
  ASSERT_FALSE(seg_path.empty());
  {
    const int fd = ::open(seg_path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const char junk[] = "\x20\x00\x00\x00garbage-torn-write";
    ASSERT_GT(::write(fd, junk, sizeof(junk)), 0);
    ::close(fd);
  }
  auto fs = open();
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->last_zxid(), (Zxid{1, 5}));  // garbage gone
  // And the file itself was truncated, so a re-open is clean too.
  auto fs2 = (fs.reset(), open());
  EXPECT_EQ(fs2->last_zxid(), (Zxid{1, 5}));
}

TEST_F(FileStorageTest, CorruptRecordMidSegmentDetected) {
  std::string seg_path;
  {
    auto fs = open();
    for (std::uint32_t c = 1; c <= 5; ++c) {
      fs->append(txn(1, c, std::string(64, 'b')), nullptr);
    }
  }
  auto names = list_dir(dir_);
  for (const auto& n : names.value()) {
    if (n.rfind("log.", 0) == 0) seg_path = dir_ + "/" + n;
  }
  // Flip a byte in the middle of the file: recovery must stop at the
  // corruption (tail entries lost, but no garbage surfaced).
  auto data = read_file(seg_path);
  ASSERT_TRUE(data.is_ok());
  Bytes bytes = data.value();
  bytes[bytes.size() / 2] ^= 0xff;
  ASSERT_TRUE(atomic_write_file(seg_path, bytes, false).is_ok());

  auto fs = open();
  ASSERT_NE(fs, nullptr);
  EXPECT_LT(fs->last_zxid(), (Zxid{1, 5}));
  const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
  for (const auto& e : entries) {
    EXPECT_EQ(e.data, to_bytes(std::string(64, 'b')));  // all intact
  }
}

TEST_F(FileStorageTest, TruncateAfterRewritesDisk) {
  {
    auto fs = open(false, 256);
    for (std::uint32_t c = 1; c <= 20; ++c) {
      fs->append(txn(1, c, std::string(32, 'c')), nullptr);
    }
    ASSERT_TRUE(fs->truncate_after(Zxid{1, 7}).is_ok());
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, 7}));
    // Appends continue cleanly after truncation.
    fs->append(txn(2, 1), nullptr);
    EXPECT_EQ(fs->last_zxid(), (Zxid{2, 1}));
  }
  auto fs = open(false, 256);
  EXPECT_EQ(fs->last_zxid(), (Zxid{2, 1}));
  EXPECT_EQ(fs->entries_in(Zxid::zero(), Zxid::max()).size(), 8u);
}

TEST_F(FileStorageTest, SnapshotSaveLoadAndInstall) {
  {
    auto fs = open();
    for (std::uint32_t c = 1; c <= 6; ++c) fs->append(txn(1, c), nullptr);
    ASSERT_TRUE(
        fs->save_snapshot(Snapshot{Zxid{1, 4}, to_bytes("app-state")}).is_ok());
  }
  {
    auto fs = open();
    ASSERT_TRUE(fs->snapshot().has_value());
    EXPECT_EQ(fs->snapshot()->last_included, (Zxid{1, 4}));
    EXPECT_EQ(fs->snapshot()->state, to_bytes("app-state"));
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, 6}));  // log survives save_snapshot

    // install replaces everything.
    ASSERT_TRUE(
        fs->install_snapshot(Snapshot{Zxid{5, 2}, to_bytes("other")}).is_ok());
    EXPECT_EQ(fs->last_zxid(), (Zxid{5, 2}));
    EXPECT_TRUE(fs->entries_in(Zxid::zero(), Zxid::max()).empty());
  }
  auto fs = open();
  EXPECT_EQ(fs->last_zxid(), (Zxid{5, 2}));
}

TEST_F(FileStorageTest, CorruptSnapshotIgnored) {
  {
    auto fs = open();
    fs->append(txn(1, 1), nullptr);
    ASSERT_TRUE(fs->save_snapshot(Snapshot{Zxid{1, 1}, to_bytes("s")}).is_ok());
  }
  // Corrupt the snapshot file.
  auto names = list_dir(dir_);
  for (const auto& n : names.value()) {
    if (n.rfind("snap.", 0) == 0) {
      const std::string p = dir_ + "/" + n;
      auto data = read_file(p);
      Bytes b = data.value();
      b.back() ^= 0xff;
      ASSERT_TRUE(atomic_write_file(p, b, false).is_ok());
    }
  }
  auto fs = open();
  ASSERT_NE(fs, nullptr);
  EXPECT_FALSE(fs->snapshot().has_value());   // ignored, not fatal
  EXPECT_EQ(fs->last_zxid(), (Zxid{1, 1}));  // log still there
}

TEST_F(FileStorageTest, PurgeRemovesWholeSegmentsOnly) {
  auto fs = open(false, /*segment_bytes=*/128);
  for (std::uint32_t c = 1; c <= 40; ++c) {
    fs->append(txn(1, c, std::string(32, 'd')), nullptr);
  }
  ASSERT_TRUE(fs->save_snapshot(Snapshot{Zxid{1, 35}, {}}).is_ok());
  fs->purge_log(5);
  EXPECT_GE(fs->entries_in(Zxid::zero(), Zxid::max()).size(), 5u);
  EXPECT_GT(fs->first_logged(), (Zxid{1, 1}));
  EXPECT_EQ(fs->last_zxid(), (Zxid{1, 40}));
}

TEST_F(FileStorageTest, EpochFileSurvivesAtomically) {
  {
    auto fs = open(true);
    ASSERT_TRUE(fs->set_accepted_epoch(9).is_ok());
  }
  {
    auto fs = open(true);
    EXPECT_EQ(fs->accepted_epoch(), 9u);
    ASSERT_TRUE(fs->set_current_epoch(9).is_ok());
  }
  auto fs = open(true);
  EXPECT_EQ(fs->accepted_epoch(), 9u);
  EXPECT_EQ(fs->current_epoch(), 9u);
}

// ===================== FileStorage group commit ==============================

class FileStorageGroupCommitTest : public FileStorageTest {
 protected:
  std::unique_ptr<FileStorage> open_gc(MetricsRegistry* reg,
                                       std::uint64_t force_ns = 0,
                                       std::size_t segment_bytes = 1 << 20) {
    FileStorageOptions opts;
    opts.dir = dir_;
    opts.fsync = true;
    opts.sync_mode = FileStorageOptions::SyncMode::kGroupCommit;
    opts.simulated_force_ns = force_ns;
    opts.segment_bytes = segment_bytes;
    opts.metrics = reg;
    auto r = FileStorage::open(opts);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return r.is_ok() ? std::move(r).take() : nullptr;
  }
};

TEST_F(FileStorageGroupCommitTest, CallbacksInAppendOrderOnlyAfterBatchFsync) {
  MetricsRegistry reg;
  const AtomicCounter& fsyncs = reg.counter("storage.fsyncs");
  constexpr int kN = 50;
  {
    // 2 ms per force: appends outrun the log-sync thread, so records must
    // group under shared forces. No completion poster — callbacks run on the
    // sync thread, hence the mutex.
    auto fs = open_gc(&reg, /*force_ns=*/2'000'000);
    std::mutex mu;
    std::vector<int> order;
    std::atomic<bool> fsync_preceded_every_cb{true};
    for (int i = 0; i < kN; ++i) {
      fs->append(txn(1, static_cast<std::uint32_t>(i + 1)), [&, i] {
        // Durability contract: by callback time the covering force happened.
        if (fsyncs.value() == 0) fsync_preceded_every_cb = false;
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(i);
      });
    }
    // Pending tail is visible before durability.
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, kN}));
    fs->flush();
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
    EXPECT_TRUE(fsync_preceded_every_cb);
    EXPECT_GE(fsyncs.value(), 1u);
    EXPECT_LT(fsyncs.value(), static_cast<std::uint64_t>(kN) / 2);  // grouped
    EXPECT_TRUE(fs->last_io_status().is_ok());
  }
  // Everything group-committed is recoverable.
  auto fs = open(true);
  EXPECT_EQ(fs->entries_in(Zxid::zero(), Zxid::max()).size(),
            static_cast<std::size_t>(kN));
}

TEST_F(FileStorageGroupCommitTest, TruncateAfterDrainsInFlightAppends) {
  MetricsRegistry reg;
  {
    auto fs = open_gc(&reg, /*force_ns=*/5'000'000);
    std::mutex mu;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      fs->append(txn(1, static_cast<std::uint32_t>(i + 1)), [&, i] {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(i);
      });
    }
    // Truncate while most of those records are still queued: the pipeline
    // must drain first (all 20 callbacks fire, in order), then truncate.
    ASSERT_TRUE(fs->truncate_after(Zxid{1, 5}).is_ok());
    {
      std::lock_guard<std::mutex> lk(mu);
      ASSERT_EQ(order.size(), 20u);
      for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
    }
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, 5}));
    EXPECT_FALSE(fs->covers(Zxid{1, 6}));

    // Appends continue through the pipeline after the truncate.
    bool durable = false;
    fs->append(txn(1, 6, "after-trunc"), [&durable] { durable = true; });
    fs->flush();
    EXPECT_TRUE(durable);
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, 6}));
  }
  auto fs = open(true);
  const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_EQ(entries.back().data, to_bytes("after-trunc"));
}

TEST_F(FileStorageGroupCommitTest, CompletionPosterReceivesDispatches) {
  // Model an event loop with a task queue the owner drains: completions must
  // come through the poster, not run callbacks on the sync thread.
  MetricsRegistry reg;
  auto fs = open_gc(&reg);
  std::mutex mu;
  std::vector<std::function<void()>> tasks;
  fs->set_completion_poster([&](std::function<void()> fn) {
    std::lock_guard<std::mutex> lk(mu);
    tasks.push_back(std::move(fn));
  });
  int durable = 0;
  for (int i = 0; i < 10; ++i) {
    fs->append(txn(1, static_cast<std::uint32_t>(i + 1)),
               [&durable] { ++durable; });
  }
  // Wait for the pipeline to go idle without dispatching: flush() would run
  // completions itself, so poll the queue state via a posted marker instead.
  for (int spin = 0; spin < 2000 && durable < 10; ++spin) {
    std::vector<std::function<void()>> drained;
    {
      std::lock_guard<std::mutex> lk(mu);
      drained.swap(tasks);
    }
    for (auto& fn : drained) fn();  // owner-thread dispatch, like post()
    if (durable < 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(durable, 10);
  fs->flush();  // idempotent once everything already dispatched
  EXPECT_EQ(durable, 10);
}

TEST_F(FileStorageGroupCommitTest, SegmentRollsInsidePipeline) {
  MetricsRegistry reg;
  constexpr int kN = 64;
  {
    auto fs = open_gc(&reg, /*force_ns=*/0, /*segment_bytes=*/256);
    for (int i = 0; i < kN; ++i) {
      fs->append(txn(1, static_cast<std::uint32_t>(i + 1),
                     std::string(100, 'p')),
                 nullptr);
    }
    fs->flush();
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, kN}));
  }
  auto names = list_dir(dir_);
  ASSERT_TRUE(names.is_ok());
  int segs = 0;
  for (const auto& nm : names.value()) {
    if (nm.rfind("log.", 0) == 0) ++segs;
  }
  EXPECT_GT(segs, 1);  // rolled while records were in flight
  auto fs = open(true);
  EXPECT_EQ(fs->entries_in(Zxid::zero(), Zxid::max()).size(),
            static_cast<std::size_t>(kN));
}

// ================== FileStorage segment preparation ===========================

/// Newest segment file (`log.<16 hex>`) in `dir`, or "" if none.
std::string newest_segment(const std::string& dir) {
  std::string newest;
  const auto names = list_dir(dir);
  for (const auto& nm : names.value()) {
    if (nm.rfind("log.", 0) == 0 && nm.size() == 20 && nm > newest) newest = nm;
  }
  return newest.empty() ? "" : dir + "/" + newest;
}

/// Wait until `c` reads at least `want` (a log-sync thread is working).
bool wait_for(const AtomicCounter& c, std::uint64_t want) {
  for (int i = 0; i < 4000 && c.value() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return c.value() >= want;
}

TEST_F(FileStorageGroupCommitTest, PreparationStartsAtTheFirstRollAndForcesCountBatches) {
  MetricsRegistry reg;
  const AtomicCounter& prepared = reg.counter("storage.segments_prepared");
  const AtomicCounter& fsyncs = reg.counter("storage.fsyncs");
  auto fs = open_gc(&reg, /*force_ns=*/0, /*segment_bytes=*/4096);
  std::uint32_t c = 0;
  // Fill the first segment: no preparation before the first roll.
  while (fs->info().log_bytes < 4096) {
    fs->append(txn(1, ++c, std::string(200, 'q')), nullptr);
    fs->flush();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(prepared.value(), 0u);
  EXPECT_EQ(reg.counter("storage.prepare_ns").value(), 0u);
  EXPECT_FALSE(file_exists(dir_ + "/log.prep"));
  // Roll three times; each roll after the first takes a prepared segment.
  for (std::size_t segs = 1; segs < 4; ++c) {
    fs->append(txn(1, c + 1, std::string(200, 'q')), nullptr);
    fs->flush();
    if (fs->info().segments > segs) {
      segs = fs->info().segments;
      ASSERT_TRUE(wait_for(prepared, segs - 1));
    }
  }
  EXPECT_GT(reg.counter("storage.prepare_ns").value(), 0u);
  // Log forces only: one per forced batch, none for preparation.
  const auto snap = reg.snapshot();
  EXPECT_EQ(fsyncs.value(), snap.histograms.at("storage.sync_batch_records").count());
  EXPECT_EQ(fsyncs.value(), snap.histograms.at("storage.fsync_ns").count());
  // The newest segment is a prepared one: full length, zero tail.
  struct stat st {};
  ASSERT_EQ(::stat(newest_segment(dir_).c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 4096);
  fs.reset();
  auto re = open(true, 4096);
  EXPECT_EQ(re->entries_in(Zxid::zero(), Zxid::max()).size(), c);
}

TEST_F(FileStorageGroupCommitTest, ZeroTailSurvivesRecoveryAndTakesTheNextAppend) {
  MetricsRegistry reg;
  std::uint32_t c = 0;
  {
    auto fs = open_gc(&reg, /*force_ns=*/0, /*segment_bytes=*/4096);
    while (fs->info().segments < 2) {
      fs->append(txn(1, ++c, std::string(300, 'z')), nullptr);
      fs->flush();
    }
    ASSERT_TRUE(wait_for(reg.counter("storage.segments_prepared"), 1));
    while (fs->info().segments < 3) {
      fs->append(txn(1, ++c, std::string(300, 'z')), nullptr);
      fs->flush();
    }
  }
  const std::string seg = newest_segment(dir_);
  const Bytes before = read_file(seg).value();
  ASSERT_EQ(before.size(), 4096u);
  const std::size_t used = 4096 - static_cast<std::size_t>(
      std::find_if(before.rbegin(), before.rend(),
                   [](std::uint8_t b) { return b != 0; }) - before.rbegin());
  ASSERT_LT(used, 4096u);

  ::testing::internal::CaptureStderr();
  auto fs = open(true, 4096);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("torn tail"), std::string::npos) << err;
  EXPECT_EQ(read_file(seg).value(), before);  // untouched, same size
  EXPECT_EQ(fs->last_zxid(), (Zxid{1, c}));

  fs->append(txn(1, c + 1, "next"), nullptr);
  const Bytes after = read_file(seg).value();
  ASSERT_EQ(after.size(), 4096u);
  EXPECT_TRUE(std::equal(before.begin(), before.begin() + used, after.begin()));
  EXPECT_NE(after[used], 0);  // the new record's header starts at the used length
  fs.reset();
  EXPECT_EQ(open(true, 4096)->last_zxid(), (Zxid{1, c + 1}));
}

TEST_F(FileStorageTest, LeftoverPreparedFileIsRemovedAndNeverRead) {
  {
    auto fs = open();
    for (std::uint32_t c = 1; c <= 3; ++c) fs->append(txn(1, c), nullptr);
  }
  // A leftover prepared file holding valid records (of a later zxid).
  const std::string seg = newest_segment(dir_);
  {
    FileStorageOptions opts;
    opts.dir = dir_ + "/other";
    auto other = std::move(FileStorage::open(opts)).take();
    other->append(txn(7, 1), nullptr);
  }
  ASSERT_EQ(::rename(newest_segment(dir_ + "/other").c_str(),
                     (dir_ + "/log.prep").c_str()), 0);
  auto fs = open();
  EXPECT_FALSE(file_exists(dir_ + "/log.prep"));
  EXPECT_EQ(fs->last_zxid(), (Zxid{1, 3}));
  EXPECT_EQ(fs->entries_in(Zxid::zero(), Zxid::max()).size(), 3u);
  EXPECT_EQ(newest_segment(dir_), seg);
}

TEST_F(FileStorageTest, FsUtilHelpers) {
  EXPECT_TRUE(make_dirs(dir_ + "/a/b/c").is_ok());
  EXPECT_TRUE(file_exists(dir_ + "/a/b/c"));
  EXPECT_TRUE(atomic_write_file(dir_ + "/a/file", to_bytes("abc"), true).is_ok());
  auto data = read_file(dir_ + "/a/file");
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), to_bytes("abc"));
  EXPECT_TRUE(truncate_file(dir_ + "/a/file", 1).is_ok());
  EXPECT_EQ(read_file(dir_ + "/a/file").value().size(), 1u);
  EXPECT_TRUE(remove_file(dir_ + "/a/file").is_ok());
  EXPECT_FALSE(file_exists(dir_ + "/a/file"));
  EXPECT_FALSE(read_file(dir_ + "/nonexistent").is_ok());
}

}  // namespace
}  // namespace zab::storage
