// Stable-storage interface required by the Zab protocol.
//
// The paper requires each process to keep, across crashes (§4):
//   * acceptedEpoch (f.p)  — the last NEWEPOCH it acknowledged;
//   * currentEpoch  (f.a)  — the last NEWLEADER it acknowledged;
//   * its transaction history (the accepted proposals, in zxid order).
// ZooKeeper realizes the history as a transaction log plus periodic
// (fuzzy) snapshots of the application state; we expose the same split.
//
// Appends are asynchronous: on_durable fires once the record is on stable
// storage. A follower may ACK a proposal only after that point. Everything
// else (recovery-path reads, truncation, epoch updates) is synchronous.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/txn.h"
#include "common/types.h"

namespace zab::storage {

struct Snapshot {
  Zxid last_included;  // state covers all txns <= this zxid
  Bytes state;         // opaque application state
};

class ZabStorage {
 public:
  virtual ~ZabStorage() = default;

  // --- Epoch metadata (durable before the setter returns) -------------------
  [[nodiscard]] virtual Epoch accepted_epoch() const = 0;
  [[nodiscard]] virtual Epoch current_epoch() const = 0;
  virtual Status set_accepted_epoch(Epoch e) = 0;
  virtual Status set_current_epoch(Epoch e) = 0;

  // --- Transaction log -------------------------------------------------------
  /// Append in zxid order. `on_durable` fires (on the owner's event context)
  /// once the record is stable; callbacks fire in append order.
  virtual void append(const Txn& txn, std::function<void()> on_durable) = 0;

  /// Drop every logged entry with zxid > last_keep.
  virtual Status truncate_after(Zxid last_keep) = 0;

  /// Highest zxid covered by this storage (log tail, or snapshot boundary if
  /// the log is empty). Zxid::zero() when empty.
  [[nodiscard]] virtual Zxid last_zxid() const = 0;

  /// Largest zxid covered by storage that is <= z (Zxid::zero() if none).
  /// Used by the leader to find the sync point for a diverged follower.
  [[nodiscard]] virtual Zxid latest_at_or_below(Zxid z) const = 0;

  /// True if z is the snapshot boundary, a logged entry, or zero.
  [[nodiscard]] virtual bool covers(Zxid z) const = 0;

  /// Entries with after < zxid <= upto that are still in the log (not yet
  /// folded into a snapshot), in zxid order. If part of them does not read
  /// back (an IO error, or a log file damaged while open), the answer stops
  /// before that part: it is never a run with a gap.
  [[nodiscard]] virtual std::vector<Txn> entries_in(Zxid after,
                                                    Zxid upto) const = 0;

  /// Earliest zxid still available as a log entry; Zxid::max() if log empty.
  /// Entries below this are only represented by the snapshot.
  [[nodiscard]] virtual Zxid first_logged() const = 0;

  // --- Snapshots -------------------------------------------------------------
  /// Persist a local checkpoint of application state covering `upto`.
  virtual Status save_snapshot(const Snapshot& snap) = 0;
  /// Replace all local state with a snapshot received from the leader; the
  /// log restarts empty after `snap.last_included`.
  virtual Status install_snapshot(const Snapshot& snap) = 0;
  [[nodiscard]] virtual std::optional<Snapshot> snapshot() const = 0;

  /// Discard log entries already covered by the snapshot, keeping at least
  /// `keep` trailing entries (log retention for DIFF syncs).
  virtual void purge_log(std::size_t keep) = 0;

  // --- Introspection ----------------------------------------------------------
  /// Coarse capacity stats for the admin plane's /status endpoint.
  struct StorageInfo {
    std::uint64_t log_entries = 0;
    std::uint64_t log_bytes = 0;  // payload/record bytes; 0 when unknown
    std::uint64_t segments = 0;
    std::uint64_t snapshot_zxid = 0;   // packed; 0 = no snapshot
    std::uint64_t snapshot_bytes = 0;  // serialized application state size
    std::uint64_t mirror_bytes = 0;    // log record bytes held in memory
    bool fsync = false;         // appends are forced to media
    bool group_commit = false;  // a log-sync thread drains the write queue
  };
  /// Call from the owner's event context (same rule as the mutators). The
  /// default reports only the snapshot; backends override with log stats.
  [[nodiscard]] virtual StorageInfo info() const {
    StorageInfo i;
    if (auto s = snapshot()) {
      i.snapshot_zxid = s->last_included.packed();
      i.snapshot_bytes = s->state.size();
    }
    return i;
  }
};

}  // namespace zab::storage
