// One load-generator connection speaking the client wire protocol
// (pb/client_protocol.h): u32 length-prefixed frames, a connect handshake
// first, then pipelined requests matched to replies by xid. Replies may
// arrive out of order (a session read can overtake an earlier write on the
// same connection), so every in-flight request is kept by xid until its
// reply comes back.
//
// Non-blocking and single-threaded: the generator polls every GenConn's
// fd() itself, calls flush() when wants_write() and on_readable() when the
// socket is readable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "pb/client_protocol.h"

namespace rtbench {

/// CLOCK_MONOTONIC in ns: the clock the Zab trace ring stamps with.
[[nodiscard]] std::int64_t now_ns();

/// Appends `payload` to `out` as one length-prefixed frame.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Splits a byte stream into frames.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// The next complete frame, or nullopt when more bytes are needed or the
  /// stream is broken (an oversized length prefix).
  [[nodiscard]] std::optional<zab::Bytes> next();
  [[nodiscard]] bool broken() const { return broken_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool broken_ = false;
};

/// What the generator remembers about a request until its reply arrives.
struct Pending {
  std::int64_t due_ns = 0;   // open loop: schedule time; closed: send time
  std::int64_t sent_ns = 0;  // when the frame was handed to the socket
  bool is_write = false;
  std::uint32_t key = 0;
  std::uint64_t seq = 0;     // writes: the writer's sequence number
  std::uint64_t fence = 0;   // reads: the session fence sent with it
  int phase = 0;
};

struct Completion {
  std::uint64_t xid = 0;
  std::uint32_t conn = 0;  // set by the caller that owns several GenConns
  Pending req;
  zab::pb::ClientResponse resp;
  std::int64_t recv_ns = 0;
};

class GenConn {
 public:
  /// Takes ownership of a connected stream socket and makes it non-blocking.
  explicit GenConn(int fd);
  ~GenConn();
  GenConn(const GenConn&) = delete;
  GenConn& operator=(const GenConn&) = delete;

  /// Connects to 127.0.0.1:port.
  static zab::Result<std::unique_ptr<GenConn>> dial(std::uint16_t port);

  /// Opens a fresh session: sends the ConnectRequest and waits (polling
  /// this socket only) for the ConnectResponse until `deadline_ns`. A
  /// refused attach (e.g. kNotReady while the replica syncs) is retried.
  zab::Status handshake(std::uint32_t session_timeout_ms,
                        std::int64_t deadline_ns);

  /// Queues a request; assigns and returns its xid. Call flush() to send.
  std::uint64_t queue(zab::pb::ClientRequest req, const Pending& p);
  /// Writes as much queued output as the socket takes, stamping sent_ns of
  /// the requests it completes. False on a socket error.
  bool flush(std::int64_t now);
  [[nodiscard]] bool wants_write() const { return out_off_ < out_.size(); }

  /// Reads everything available, decodes each reply and matches it to its
  /// request; matched replies are appended to `out`. The connection's
  /// session fence ratchets from every reply's zxid. False on EOF, a socket
  /// error, a broken frame or a reply with no matching request.
  bool on_readable(std::int64_t now, std::vector<Completion>& out);

  /// Feeds raw bytes as if read from the socket (used by on_readable and by
  /// the tests).
  bool on_bytes(const std::uint8_t* data, std::size_t n, std::int64_t now,
                std::vector<Completion>& out);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  /// Highest zxid seen in any reply on this connection (packed).
  [[nodiscard]] std::uint64_t fence() const { return fence_; }

 private:
  int fd_ = -1;
  FrameReader in_;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  // xids whose frame ends at the given out_ offset, in queue order; stamped
  // with the send time once the socket has taken that many bytes.
  std::vector<std::pair<std::size_t, std::uint64_t>> unsent_;
  std::size_t unsent_head_ = 0;
  std::uint64_t next_xid_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t session_id_ = 0;
  std::uint64_t fence_ = 0;
};

}  // namespace rtbench
