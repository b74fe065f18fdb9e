// Crash-point property tests for FileStorage: whatever byte prefix of the
// newest log segment survives a crash (torn write), recovery must produce a
// clean *prefix* of the appended entries — never garbage, never a gap —
// and appends must continue correctly afterwards.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "storage/file_storage.h"

namespace zab::storage {
namespace {

class StorageCrashPoints : public ::testing::TestWithParam<std::uint64_t> {};

Txn txn_of(Epoch e, std::uint32_t c, Rng& rng) {
  Bytes data(rng.below(200));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return Txn{Zxid{e, c}, std::move(data)};
}

TEST_P(StorageCrashPoints, TornTailAlwaysRecoversToCleanPrefix) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::string dir =
      ::testing::TempDir() + "/zab_crashpt_" + std::to_string(seed);
  (void)remove_dir_recursive(dir);

  // Write a known sequence.
  std::vector<Txn> written;
  {
    FileStorageOptions opts;
    opts.dir = dir;
    opts.fsync = false;
    opts.segment_bytes = 512;  // several segments
    auto fs = std::move(FileStorage::open(opts)).take();
    const int n = static_cast<int>(20 + rng.below(60));
    for (int c = 1; c <= n; ++c) {
      Txn t = txn_of(1, static_cast<std::uint32_t>(c), rng);
      written.push_back(t);
      fs->append(t, nullptr);
    }
  }

  // "Crash": chop the newest segment at a random byte offset.
  std::string newest;
  {
    auto names = list_dir(dir);
    ASSERT_TRUE(names.is_ok());
    for (const auto& nm : names.value()) {
      if (nm.rfind("log.", 0) == 0 && (newest.empty() || nm > newest)) {
        newest = nm;
      }
    }
  }
  ASSERT_FALSE(newest.empty());
  const std::string path = dir + "/" + newest;
  auto data = read_file(path);
  ASSERT_TRUE(data.is_ok());
  const std::size_t cut = rng.below(data.value().size() + 1);
  ASSERT_TRUE(truncate_file(path, cut).is_ok());

  // Recover: entries must be an exact prefix of what was written.
  {
    FileStorageOptions opts;
    opts.dir = dir;
    opts.fsync = false;
    opts.segment_bytes = 512;
    auto res = FileStorage::open(opts);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    auto fs = std::move(res).take();
    const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
    ASSERT_LE(entries.size(), written.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].zxid, written[i].zxid) << "seed " << seed;
      EXPECT_EQ(entries[i].data, written[i].data) << "seed " << seed;
    }

    // Appending after recovery continues the sequence cleanly.
    const std::uint32_t next =
        entries.empty() ? 1 : entries.back().zxid.counter + 1;
    fs->append(Txn{Zxid{1, next}, to_bytes("post-crash")}, nullptr);
    EXPECT_EQ(fs->last_zxid(), (Zxid{1, next}));
  }
  // And a second recovery sees the post-crash append too.
  {
    FileStorageOptions opts;
    opts.dir = dir;
    opts.fsync = false;
    opts.segment_bytes = 512;
    auto fs = std::move(FileStorage::open(opts)).take();
    const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
    ASSERT_FALSE(entries.empty());
    EXPECT_EQ(entries.back().data, to_bytes("post-crash"));
  }
  (void)remove_dir_recursive(dir);
}

TEST_P(StorageCrashPoints, GroupCommitTornTailAlsoRecoversToCleanPrefix) {
  // Same property through the async pipeline: records written by the
  // log-sync thread, a crash chops the newest segment, recovery (in the
  // default sync mode) still yields an exact prefix.
  const std::uint64_t seed = GetParam();
  Rng rng(seed + 9000);
  const std::string dir =
      ::testing::TempDir() + "/zab_gc_crashpt_" + std::to_string(seed);
  (void)remove_dir_recursive(dir);

  std::vector<Txn> written;
  {
    FileStorageOptions opts;
    opts.dir = dir;
    opts.fsync = false;
    opts.segment_bytes = 512;
    opts.sync_mode = FileStorageOptions::SyncMode::kGroupCommit;
    auto fs = std::move(FileStorage::open(opts)).take();
    const int n = static_cast<int>(20 + rng.below(60));
    for (int c = 1; c <= n; ++c) {
      Txn t = txn_of(1, static_cast<std::uint32_t>(c), rng);
      written.push_back(t);
      fs->append(t, nullptr);
    }
    // Pending tail counts toward last_zxid even before the drain.
    EXPECT_EQ(fs->last_zxid(), written.back().zxid);
    fs->flush();
  }

  std::string newest;
  {
    auto names = list_dir(dir);
    ASSERT_TRUE(names.is_ok());
    for (const auto& nm : names.value()) {
      if (nm.rfind("log.", 0) == 0 && (newest.empty() || nm > newest)) {
        newest = nm;
      }
    }
  }
  ASSERT_FALSE(newest.empty());
  const std::string path = dir + "/" + newest;
  auto data = read_file(path);
  ASSERT_TRUE(data.is_ok());
  const std::size_t cut = rng.below(data.value().size() + 1);
  ASSERT_TRUE(truncate_file(path, cut).is_ok());

  {
    FileStorageOptions opts;
    opts.dir = dir;
    opts.fsync = false;
    opts.segment_bytes = 512;
    auto res = FileStorage::open(opts);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    auto fs = std::move(res).take();
    const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
    ASSERT_LE(entries.size(), written.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].zxid, written[i].zxid) << "seed " << seed;
      EXPECT_EQ(entries[i].data, written[i].data) << "seed " << seed;
    }
  }
  (void)remove_dir_recursive(dir);
}

TEST_P(StorageCrashPoints, PreparedSegmentCrashRecoversToCleanPrefix) {
  // Forced group commit into prepared, zero-filled segments. The crash
  // cuts the newest segment inside its records or inside its zero tail, or
  // leaves a partial record in the zero tail.
  const std::uint64_t seed = GetParam();
  Rng rng(seed + 5000);
  const std::string dir =
      ::testing::TempDir() + "/zab_prep_crashpt_" + std::to_string(seed);
  (void)remove_dir_recursive(dir);
  MetricsRegistry reg;
  const AtomicCounter& prepared = reg.counter("storage.segments_prepared");
  auto opts_for = [&](bool gc) {
    FileStorageOptions opts;
    opts.dir = dir;
    opts.segment_bytes = 2048;
    opts.metrics = &reg;
    if (gc) opts.sync_mode = FileStorageOptions::SyncMode::kGroupCommit;
    return opts;
  };
  auto nonzero_txn = [&rng](std::uint32_t c) {
    Bytes data(1 + rng.below(150));
    for (auto& b : data) b = static_cast<std::uint8_t>(1 + rng.below(255));
    return Txn{Zxid{1, c}, std::move(data)};
  };

  std::vector<Txn> written;
  {
    auto fs = std::move(FileStorage::open(opts_for(true))).take();
    const auto rolls = 3 + rng.below(3);
    for (std::size_t segs = 0; segs <= rolls;) {
      written.push_back(nonzero_txn(static_cast<std::uint32_t>(written.size() + 1)));
      fs->append(written.back(), nullptr);
      if (fs->info().segments == segs) continue;
      // A roll: let the next segment be prepared before the one after.
      segs = fs->info().segments;
      fs->flush();
      for (int i = 0; segs >= 2 && prepared.value() < segs - 1 && i < 4000; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    for (int i = static_cast<int>(rng.below(8)); i > 0; --i) {
      written.push_back(nonzero_txn(static_cast<std::uint32_t>(written.size() + 1)));
      fs->append(written.back(), nullptr);
    }
  }

  std::string newest;
  const auto names = list_dir(dir);
  for (const auto& nm : names.value()) {
    if (nm.rfind("log.", 0) == 0 && nm.size() == 20 && nm > newest) newest = nm;
  }
  const std::string path = dir + "/" + newest;
  const Bytes data = read_file(path).value();
  ASSERT_EQ(data.size(), 2048u) << "newest segment is not a prepared one";
  // Every record ends in a non-zero data byte, so the records end here.
  const std::size_t used = data.size() - static_cast<std::size_t>(
      std::find_if(data.rbegin(), data.rend(),
                   [](std::uint8_t b) { return b != 0; }) - data.rbegin());
  std::size_t cut = data.size();
  switch (rng.below(3)) {
    case 0:  // inside the records
      cut = rng.below(used + 1);
      break;
    case 1:  // inside the zero tail
      cut = used + rng.below(data.size() - used + 1);
      break;
    default: {  // a partial record torn inside the zero tail
      const std::uint8_t part[] = {0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 7};
      const int fd = ::open(path.c_str(), O_WRONLY);
      ASSERT_GE(fd, 0);
      const std::size_t n = 1 + rng.below(sizeof(part));
      ASSERT_EQ(::pwrite(fd, part, n, static_cast<off_t>(used)),
                static_cast<ssize_t>(n));
      ::close(fd);
    }
  }
  ASSERT_TRUE(truncate_file(path, cut).is_ok());

  std::uint32_t next = 0;
  {
    auto res = FileStorage::open(opts_for(true));
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    auto fs = std::move(res).take();
    const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
    ASSERT_LE(entries.size(), written.size());
    if (cut >= used) {
      EXPECT_EQ(entries.size(), written.size()) << "seed " << seed;
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].zxid, written[i].zxid) << "seed " << seed;
      EXPECT_EQ(entries[i].data, written[i].data) << "seed " << seed;
    }
    next = entries.empty() ? 1 : entries.back().zxid.counter + 1;
    fs->append(Txn{Zxid{1, next}, to_bytes("post-crash")}, nullptr);
    fs->append(Txn{Zxid{1, next + 1}, to_bytes("post-crash-2")}, nullptr);
    fs->flush();
  }
  // A second recovery sees the prefix and both post-crash appends.
  auto fs = std::move(FileStorage::open(opts_for(false))).take();
  const auto entries = fs->entries_in(Zxid::zero(), Zxid::max());
  ASSERT_EQ(entries.size(), next + 1) << "seed " << seed;
  for (std::size_t i = 0; i + 2 < entries.size(); ++i) {
    EXPECT_EQ(entries[i].data, written[i].data) << "seed " << seed;
  }
  EXPECT_EQ(entries[next - 1].data, to_bytes("post-crash"));
  EXPECT_EQ(entries.back().data, to_bytes("post-crash-2"));
  fs.reset();
  (void)remove_dir_recursive(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageCrashPoints,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(StorageCrashPoints, EpochFileCrashLeavesOldValueOrNewValue) {
  // The epoch file is written via temp+rename: a crash may lose the rename
  // but must never yield a half-written file. Simulate by leaving a stale
  // .tmp next to a valid file.
  const std::string dir = ::testing::TempDir() + "/zab_epochcrash";
  (void)remove_dir_recursive(dir);
  {
    FileStorageOptions opts;
    opts.dir = dir;
    auto fs = std::move(FileStorage::open(opts)).take();
    ASSERT_TRUE(fs->set_accepted_epoch(7).is_ok());
  }
  // A torn tmp from a crashed update attempt.
  ASSERT_TRUE(
      atomic_write_file(dir + "/epoch.tmp.garbage", to_bytes("junk"), false)
          .is_ok());
  {
    FileStorageOptions opts;
    opts.dir = dir;
    auto res = FileStorage::open(opts);
    ASSERT_TRUE(res.is_ok());
    EXPECT_EQ(res.value()->accepted_epoch(), 7u);
  }
  (void)remove_dir_recursive(dir);
}

}  // namespace
}  // namespace zab::storage
