#include "gen_conn.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>

namespace rtbench {

namespace {

constexpr std::uint32_t kMaxFrame = 16u << 20;

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));  // little-endian
  }
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<zab::Bytes> FrameReader::next() {
  if (broken_ || buf_.size() - pos_ < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len > kMaxFrame) {
    broken_ = true;
    return std::nullopt;
  }
  if (buf_.size() - pos_ - 4 < len) return std::nullopt;
  const auto begin = buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4);
  zab::Bytes frame(begin, begin + static_cast<std::ptrdiff_t>(len));
  pos_ += 4 + len;
  // Compact once the consumed prefix dominates, so the buffer stays small.
  if (pos_ > 65536 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return frame;
}

GenConn::GenConn(int fd) : fd_(fd) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

GenConn::~GenConn() {
  if (fd_ >= 0) ::close(fd_);
}

zab::Result<std::unique_ptr<GenConn>> GenConn::dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return zab::Status::io_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return zab::Status::io_error("connect: " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<GenConn>(fd);
}

zab::Status GenConn::handshake(std::uint32_t session_timeout_ms,
                               std::int64_t deadline_ns) {
  while (true) {
    zab::pb::ConnectRequest req;
    req.timeout_ms = session_timeout_ms;
    req.last_zxid = fence_;
    append_frame(out_, zab::pb::encode_connect_request(req));
    std::optional<zab::pb::ConnectResponse> resp;
    while (!resp) {
      if (wants_write() && !flush(now_ns())) {
        return zab::Status::io_error("handshake send");
      }
      if (auto frame = in_.next()) {
        auto r = zab::pb::decode_connect_response(*frame);
        if (!r.is_ok()) return r.status();
        resp = r.value();
        break;
      }
      if (in_.broken()) return zab::Status::corruption("handshake: broken frame");
      const std::int64_t now = now_ns();
      if (now >= deadline_ns) return zab::Status::timeout("connect handshake");
      pollfd p{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)),
               0};
      const auto wait_ms = std::max<std::int64_t>(
          1, std::min<std::int64_t>(100, (deadline_ns - now) / 1'000'000));
      if (::poll(&p, 1, static_cast<int>(wait_ms)) < 0 && errno != EINTR) {
        return zab::Status::io_error("handshake poll");
      }
      if (!(p.revents & (POLLIN | POLLERR | POLLHUP))) continue;
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return zab::Status::io_error("handshake: peer closed");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        return zab::Status::io_error("handshake recv");
      }
      in_.feed(buf, static_cast<std::size_t>(n));
    }
    if (resp->code == zab::Code::kOk) {
      session_id_ = resp->session_id;
      fence_ = std::max(fence_, resp->last_zxid);
      return zab::Status::ok();
    }
    if (resp->code != zab::Code::kNotReady) {
      return zab::Status(resp->code, "connect refused");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::uint64_t GenConn::queue(zab::pb::ClientRequest req, const Pending& p) {
  const std::uint64_t xid = next_xid_++;
  req.xid = xid;
  append_frame(out_, zab::pb::encode_client_request(req));
  unsent_.emplace_back(out_.size(), xid);
  pending_.emplace(xid, p);
  return xid;
}

bool GenConn::flush(std::int64_t now) {
  while (out_off_ < out_.size()) {
    const ssize_t w = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (w > 0) {
      out_off_ += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  while (unsent_head_ < unsent_.size() &&
         unsent_[unsent_head_].first <= out_off_) {
    if (auto it = pending_.find(unsent_[unsent_head_].second);
        it != pending_.end()) {
      it->second.sent_ns = now;
    }
    ++unsent_head_;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
    unsent_.clear();
    unsent_head_ = 0;
  }
  return true;
}

bool GenConn::on_readable(std::int64_t now, std::vector<Completion>& out) {
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!on_bytes(buf, static_cast<std::size_t>(n), now, out)) return false;
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool GenConn::on_bytes(const std::uint8_t* data, std::size_t n,
                       std::int64_t now, std::vector<Completion>& out) {
  in_.feed(data, n);
  while (auto frame = in_.next()) {
    // Watch events and pongs are never requested here, so anything but a
    // well-formed reply to a pending request breaks the connection.
    if (zab::pb::classify_frame(*frame) != zab::pb::FrameType::kResponse) {
      return false;
    }
    auto resp = zab::pb::decode_client_response(*frame);
    if (!resp.is_ok()) return false;
    auto it = pending_.find(resp.value().xid);
    if (it == pending_.end()) return false;
    Completion c;
    c.xid = it->first;
    c.req = it->second;
    c.resp = std::move(resp).take();
    c.recv_ns = now;
    pending_.erase(it);
    fence_ = std::max(fence_, c.resp.zxid.packed());
    out.push_back(std::move(c));
  }
  return !in_.broken();
}

}  // namespace rtbench
