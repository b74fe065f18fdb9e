// Correctness check run on every benchmark pass.
//
// Every value the benchmark writes names its writer and sequence number
// (make_value), so a value read back identifies exactly which write (or
// preload create) produced it. The checker holds the client-visible
// history and rejects:
//   - an acknowledged write whose zxid is not above every earlier
//     acknowledged write on the same connection (lost FIFO order);
//   - a session read answered below its fence, or with a value no write to
//     that path produced (a torn, foreign or invented value);
//   - replicas that disagree on last_delivered after the final drain;
//   - a replica whose znode does not hold the value of that path's
//     highest-zxid acknowledged write (a lost or divergent write).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"

namespace rtbench {

/// Who produced a value: the preload (writer == kPreload) or a generator
/// connection, with that writer's sequence number.
struct ValueTag {
  static constexpr std::uint32_t kPreload = 0xffffffffu;
  std::uint32_t writer = kPreload;
  std::uint64_t seq = 0;
  std::uint32_t key = 0;

  friend bool operator==(const ValueTag&, const ValueTag&) = default;
};

/// A value of exactly `bytes` bytes (at least 32) carrying `tag`: a short
/// text header followed by filler derived from the tag, so a torn or
/// spliced value fails parse_value.
[[nodiscard]] zab::Bytes make_value(const ValueTag& tag, std::size_t bytes);
/// The tag of a well-formed value, nullopt otherwise.
[[nodiscard]] std::optional<ValueTag> parse_value(
    std::span<const std::uint8_t> value);

/// The znode path of key `k` ("/k00042").
[[nodiscard]] std::string key_path(std::uint32_t k);

class Checker {
 public:
  Checker(std::uint32_t writers, std::uint32_t keys);

  /// A write left the generator (it may now be read back before its ack).
  void on_write_sent(std::uint32_t writer, std::uint64_t seq,
                     std::uint32_t key);
  /// An acknowledged write or preload create, in arrival order per `conn`.
  void on_write_ack(std::uint32_t conn, const ValueTag& tag,
                    std::uint64_t zxid);
  /// A successful session read: fence sent, zxid and value answered.
  void on_read(std::uint32_t conn, std::uint32_t key, std::uint64_t fence,
               std::uint64_t zxid, std::span<const std::uint8_t> value);
  /// Final state: one replica's last_delivered (packed) ...
  void on_replica_watermark(std::uint32_t replica, std::uint64_t zxid);
  /// ... and the value one replica holds for a key (nullopt: no znode).
  void on_replica_value(std::uint32_t replica, std::uint32_t key,
                        std::optional<std::span<const std::uint8_t>> value);
  /// Checks that need every replica's state; call after the above.
  void finish();

  [[nodiscard]] bool ok() const { return violations_ == 0; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  /// The first few violations, human-readable.
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  [[nodiscard]] std::uint64_t writes_checked() const { return writes_; }
  [[nodiscard]] std::uint64_t reads_checked() const { return reads_; }
  [[nodiscard]] std::uint64_t znodes_checked() const { return znodes_; }

 private:
  void fail(std::string msg);
  [[nodiscard]] bool was_written(const ValueTag& tag) const;

  std::uint32_t keys_;
  // Per writer: key of each sequence number sent (seq 0 unused).
  std::vector<std::vector<std::uint32_t>> sent_;
  // Per connection: zxid of the last acknowledged write.
  std::vector<std::uint64_t> last_ack_zxid_;
  struct Latest {
    std::uint64_t zxid = 0;
    std::optional<ValueTag> tag;
  };
  std::vector<Latest> latest_;  // per key: highest-zxid acknowledged write
  std::vector<std::optional<std::uint64_t>> watermarks_;
  std::uint64_t violations_ = 0;
  std::vector<std::string> errors_;
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t znodes_ = 0;
};

}  // namespace rtbench
