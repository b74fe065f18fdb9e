// The socket layer shared by every TCP endpoint of a replica: the peer
// transport, the client service and the admin plane.
//
// A Reactor owns one IO thread blocked in epoll_wait. Every socket is
// registered once, edge-triggered for input and output, so its owner reads
// or writes until EAGAIN and never re-arms it per message. Other threads
// hand work over through their owner's queue and call wake(); wakes coalesce
// into one eventfd write until the IO thread drains them.
//
// A FramedConn is one non-blocking stream socket with an owned output queue:
// u32-length-prefixed frames, or raw bytes (HTTP, the peer hello). flush()
// hands many frames to one sendmsg (writev) and resumes a partial write
// mid-frame, so no payload is copied after it was encoded. Overflow rule:
// an empty queue accepts any frame up to max_frame; behind the first frame
// (a SNAP may outsize the cap), queued bytes may not exceed out_cap. The
// owner closes a connection whose frame push() still refuses.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "common/time.h"

namespace zab::net {

class Reactor {
 public:
  /// Readiness callback for one socket; `events` is the epoll event mask.
  using Handler = std::function<void(std::uint32_t events)>;
  using Token = std::uint64_t;

  /// `on_wake` runs on the IO thread after wake() calls.
  explicit Reactor(std::function<void()> on_wake = nullptr);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind and listen on host:port (0 picks an ephemeral port, written to
  /// `*bound_port`). Each accepted connection reaches `on_accept` as a
  /// non-blocking TCP_NODELAY socket. Call before start().
  [[nodiscard]] Status listen_tcp(const std::string& host, std::uint16_t port,
                                  std::uint16_t* bound_port,
                                  std::function<void(int fd)> on_accept);
  /// Start the IO thread, named `name` (at most 15 characters) if given.
  [[nodiscard]] Status start(const std::string& name = {});
  /// Stop and join the IO thread (not from a handler) and close the
  /// listening sockets. Safe to call twice.
  void stop();

  /// Register `fd`; IO thread, or before start(). 0 when the kernel refuses.
  Token add(int fd, Handler handler);
  /// Forget a registration before its socket closes. IO thread only, also
  /// from inside the handler being removed.
  void remove(Token token);
  /// Run `fn` on the IO thread once `delay` has passed. IO thread only.
  void after(Duration delay, std::function<void()> fn);
  /// Any thread: have the IO thread run on_wake.
  void wake();

 private:
  void loop();

  std::function<void()> on_wake_;
  int epoll_fd_;
  int event_fd_;
  std::vector<int> listen_fds_;
  std::atomic<bool> running_{false};
  std::atomic<bool> wake_pending_{false};

  // IO-thread state.
  struct Watch {
    int fd;  // -1 once removed; erased when the dispatch batch ends
    Handler handler;
  };
  std::unordered_map<Token, Watch> watches_;
  std::vector<Token> removed_;
  Token next_token_ = 1;  // 0 is the eventfd
  std::multimap<TimePoint, std::function<void()>> timers_;
  std::thread thread_;
};

class FramedConn {
 public:
  FramedConn(std::size_t max_frame, std::size_t out_cap)
      : max_frame_(max_frame), out_cap_(out_cap) {}
  ~FramedConn() { close(); }
  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  /// Take ownership of a connected (or connecting) socket and register it
  /// with `reactor`; `preamble` goes out raw ahead of the frames queued so
  /// far. False, with the socket closed, when registration fails.
  bool attach(int fd, Reactor& reactor, Reactor::Handler on_event,
              Bytes preamble = {});
  /// Deregister and close the socket, dropping queued output and buffered
  /// input. Returns how many length-prefixed frames were dropped unwritten.
  std::size_t close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Queue `payload` behind a u32 length prefix (raw when `framed` is
  /// false), also before attach(), flushing first if the rule refuses it.
  /// Returns the sendmsg calls made, or -1, queuing nothing, when it still
  /// does not fit (the kernel's buffer is full too) or the link broke.
  int push(Bytes payload, bool framed = true);
  /// Write until the queue drains or the socket would block. Returns the
  /// number of sendmsg calls that wrote, or -1 when the connection broke.
  int flush();
  [[nodiscard]] std::size_t queued_bytes() const { return queued_; }

  /// Read until the socket would block, calling `parse()` after every
  /// chunk; it takes what it can (pop_frames, or input() and consume()) and
  /// returns false to give up. False when the connection is done: EOF, an
  /// error, or parse() gave up. Input stays within one frame plus a chunk.
  template <typename Parse>
  bool read(Parse&& parse) {
    while (true) {
      const int got = recv_chunk();
      if (got == 0) return true;  // would block
      if (!parse() || got < 0) return false;
    }
  }
  /// Hand each complete length-prefixed payload to `on_frame(Bytes)`.
  /// False when a frame exceeds max_frame.
  template <typename OnFrame>
  bool pop_frames(OnFrame&& on_frame) {
    Bytes frame;
    for (int n; (n = next_frame(&frame)) != 0;) {
      if (n < 0) return false;
      on_frame(std::move(frame));
    }
    return true;
  }
  [[nodiscard]] std::span<const std::uint8_t> input() const {
    return {in_.data() + in_pos_, in_.size() - in_pos_};
  }
  void consume(std::size_t n) { in_pos_ += n; }

 private:
  struct Chunk {
    std::array<std::uint8_t, 4> prefix;  // u32 length, little-endian
    std::uint8_t prefix_len;             // 4 when framed, 0 for raw bytes
    Bytes body;
  };
  [[nodiscard]] bool fits(std::size_t payload, bool framed) const;
  /// > 0 bytes appended, 0 would block, -1 EOF or error.
  int recv_chunk();
  /// 1 popped a frame, 0 needs more input, -1 frame too large.
  int next_frame(Bytes* out);

  const std::size_t max_frame_;
  const std::size_t out_cap_;
  int fd_ = -1;
  Reactor* reactor_ = nullptr;
  Reactor::Token token_ = 0;
  std::deque<Chunk> out_;
  std::size_t queued_ = 0;      // bytes in out_ not yet written
  std::size_t front_sent_ = 0;  // bytes of out_.front() already written
  Bytes in_;
  std::size_t in_pos_ = 0;  // parsed prefix of in_
};

}  // namespace zab::net
