#include "net/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace zab::net {

namespace {

constexpr Reactor::Token kWakeToken = 0;
constexpr std::size_t kMaxIov = 128;  // two per frame: prefix + payload

TimePoint steady_now() {
  static const SystemClock clock;
  return clock.now();
}

}  // namespace

Reactor::Reactor(std::function<void()> on_wake)
    : on_wake_(std::move(on_wake)),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      event_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kWakeToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
}

Reactor::~Reactor() {
  stop();
  // Closed only now: a wake() racing the owner's shutdown must never write
  // to a closed (or reused) descriptor.
  ::close(event_fd_);
  ::close(epoll_fd_);
}

Status Reactor::listen_tcp(const std::string& host, std::uint16_t port,
                           std::uint16_t* bound_port,
                           std::function<void(int fd)> on_accept) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::invalid_argument("bad host " + host);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::io_error("socket");
  listen_fds_.push_back(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    return Status::io_error(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  add(fd, [fd, on_accept = std::move(on_accept)](std::uint32_t) {
    while (true) {  // edge-triggered: accept until EAGAIN
      const int conn = ::accept4(fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (conn < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
      if (conn < 0) return;
      const int nodelay = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      on_accept(conn);
    }
  });
  return Status::ok();
}

Status Reactor::start(const std::string& name) {
  if (epoll_fd_ < 0 || event_fd_ < 0) return Status::io_error("epoll/eventfd");
  running_ = true;
  thread_ = std::thread([this] { loop(); });
  if (!name.empty()) pthread_setname_np(thread_.native_handle(), name.c_str());
  return Status::ok();
}

void Reactor::stop() {
  if (running_.exchange(false)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
}

Reactor::Token Reactor::add(int fd, Handler handler) {
  const Token token = next_token_++;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return 0;
  watches_.emplace(token, Watch{fd, std::move(handler)});
  return token;
}

void Reactor::remove(Token token) {
  auto it = watches_.find(token);
  if (it == watches_.end() || it->second.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  it->second.fd = -1;  // the handler may be running: keep it until later
  removed_.push_back(token);
}

void Reactor::after(Duration delay, std::function<void()> fn) {
  timers_.emplace(steady_now() + delay, std::move(fn));
}

void Reactor::wake() {
  if (wake_pending_.exchange(true)) return;  // a wake is already in flight
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void Reactor::loop() {
  epoll_event events[64];
  while (running_) {
    int timeout_ms = -1;
    if (!timers_.empty()) {
      const Duration left = timers_.begin()->first - steady_now();
      timeout_ms = static_cast<int>(
          std::max<Duration>(left + kMillisecond - 1, 0) / kMillisecond);
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) return;
    for (int i = 0; i < n && running_; ++i) {
      const Token token = events[i].data.u64;
      if (token == kWakeToken) {
        std::uint64_t count = 0;
        [[maybe_unused]] ssize_t r = ::read(event_fd_, &count, sizeof(count));
        // Cleared before draining: a hand-off queued after this point
        // wakes the loop again instead of being missed.
        wake_pending_ = false;
        if (on_wake_) on_wake_();
        continue;
      }
      auto it = watches_.find(token);  // may be gone earlier in this batch
      if (it != watches_.end() && it->second.fd >= 0) {
        it->second.handler(events[i].events);
      }
    }
    const TimePoint now = steady_now();
    while (running_ && !timers_.empty() && timers_.begin()->first <= now) {
      auto fn = std::move(timers_.begin()->second);
      timers_.erase(timers_.begin());
      fn();
    }
    for (const Token t : removed_) watches_.erase(t);
    removed_.clear();
  }
}

bool FramedConn::attach(int fd, Reactor& reactor, Reactor::Handler on_event,
                        Bytes preamble) {
  token_ = reactor.add(fd, std::move(on_event));
  if (token_ == 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  reactor_ = &reactor;
  if (!preamble.empty()) {
    queued_ += preamble.size();
    out_.push_front(Chunk{{}, 0, std::move(preamble)});
  }
  return true;
}

std::size_t FramedConn::close() {
  if (token_ != 0) reactor_->remove(token_);
  token_ = 0;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  std::size_t dropped = 0;
  for (const Chunk& c : out_) dropped += c.prefix_len != 0;
  out_.clear();
  in_.clear();
  queued_ = front_sent_ = in_pos_ = 0;
  return dropped;
}

bool FramedConn::fits(std::size_t payload, bool framed) const {
  // The cap counts what waits behind the first frame and any raw preamble
  // ahead of it; with no frame queued, this one would be the first.
  std::size_t head = 0;
  bool has_frame = false;
  for (auto c = out_.begin(); c != out_.end() && !has_frame; ++c) {
    head += c->prefix_len + c->body.size();
    has_frame = c->prefix_len != 0;
  }
  const std::size_t behind = queued_ + front_sent_ - head;
  return payload <= max_frame_ &&
         (!has_frame || behind + payload + (framed ? 4 : 0) <= out_cap_);
}

int FramedConn::push(Bytes payload, bool framed) {
  const int calls = fits(payload.size(), framed) ? 0 : flush();
  if (calls < 0 || !fits(payload.size(), framed)) return -1;
  Chunk& c = out_.emplace_back(Chunk{{}, 0, std::move(payload)});
  if (framed) {
    const auto len = static_cast<std::uint32_t>(c.body.size());
    std::memcpy(c.prefix.data(), &len, 4);
    c.prefix_len = 4;
  }
  queued_ += c.prefix_len + c.body.size();
  return calls;
}

int FramedConn::flush() {
  int calls = 0;
  while (fd_ >= 0 && !out_.empty()) {
    ::iovec iov[kMaxIov];
    std::size_t cnt = 0;
    std::size_t skip = front_sent_;
    for (auto c = out_.begin(); c != out_.end() && cnt + 2 <= kMaxIov; ++c) {
      const std::size_t p = std::min<std::size_t>(skip, c->prefix_len);
      if (p < c->prefix_len) {
        iov[cnt++] = {c->prefix.data() + p, c->prefix_len - p};
      }
      skip -= p;
      if (skip < c->body.size()) {
        iov[cnt++] = {c->body.data() + skip, c->body.size() - skip};
      }
      skip = 0;
    }
    ::msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) return errno == EAGAIN || errno == EWOULDBLOCK ? calls : -1;
    ++calls;
    queued_ -= static_cast<std::size_t>(w);
    // Pop what the kernel took; a partial write resumes mid-frame.
    std::size_t done = front_sent_ + static_cast<std::size_t>(w);
    while (!out_.empty() &&
           done >= out_.front().prefix_len + out_.front().body.size()) {
      done -= out_.front().prefix_len + out_.front().body.size();
      out_.pop_front();
    }
    front_sent_ = done;
  }
  return calls;
}

int FramedConn::recv_chunk() {
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
  in_pos_ = 0;
  std::uint8_t buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      return static_cast<int>(n);
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
  }
}

int FramedConn::next_frame(Bytes* out) {
  const std::span<const std::uint8_t> in = input();
  if (in.size() < 4) return 0;
  std::uint32_t len = 0;
  std::memcpy(&len, in.data(), 4);
  if (len > max_frame_) return -1;
  if (in.size() - 4 < len) return 0;
  out->assign(in.begin() + 4, in.begin() + 4 + len);
  in_pos_ += 4 + static_cast<std::size_t>(len);
  return 1;
}

}  // namespace zab::net
