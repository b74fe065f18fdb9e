#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace zab::net {

namespace {
constexpr std::uint32_t kHelloMagic = 0x5a41424eu;  // "ZABN"
}  // namespace

TcpTransport::TcpTransport(TcpConfig cfg)
    : cfg_(std::move(cfg)), reactor_([this] { drain_sends(); }) {}

Result<std::unique_ptr<TcpTransport>> TcpTransport::create(TcpConfig cfg) {
  std::unique_ptr<TcpTransport> t(new TcpTransport(std::move(cfg)));
  ZAB_RETURN_IF_ERROR(t->init());
  return t;
}

Status TcpTransport::init() {
  // Without a shared registry the counters still exist, just unexported.
  if (!cfg_.metrics) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    cfg_.metrics = own_metrics_.get();
  }
  MetricsRegistry& m = *cfg_.metrics;
  c_msgs_out_ = &m.counter("net.tcp.msgs_out");
  c_bytes_out_ = &m.counter("net.tcp.bytes_out");
  c_msgs_in_ = &m.counter("net.tcp.msgs_in");
  c_bytes_in_ = &m.counter("net.tcp.bytes_in");
  c_send_drops_ = &m.counter("net.tcp.send_drops");
  c_connects_ = &m.counter("net.tcp.connects");
  c_conn_breaks_ = &m.counter("net.tcp.conn_breaks");
  c_writev_calls_ = &m.counter("net.tcp.writev_calls");

  ZAB_RETURN_IF_ERROR(reactor_.listen_tcp(
      cfg_.host, cfg_.ports.at(cfg_.id), &listen_port_, [this](int fd) {
        const std::uint64_t id = next_inbound_++;
        auto on_event = [this, id](std::uint32_t) { on_inbound(id); };
        if (!inbound_[id].conn.attach(fd, reactor_, on_event)) {
          inbound_.erase(id);
        }
      }));
  running_ = true;
  return reactor_.start();
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::set_handler(Handler h) {
  std::lock_guard<std::mutex> lk(mu_);
  handler_ = std::move(h);
}

void TcpTransport::set_peer_ports(std::map<NodeId, std::uint16_t> ports) {
  std::lock_guard<std::mutex> lk(mu_);
  ports[cfg_.id] = cfg_.ports.at(cfg_.id);  // keep our own bound port
  cfg_.ports = std::move(ports);
}

void TcpTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    running_ = false;
    pending_.clear();
  }
  reactor_.stop();
  outgoing_.clear();  // FramedConn closes its socket
  inbound_.clear();
}

void TcpTransport::send(NodeId to, Bytes payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    pending_.emplace_back(to, std::move(payload));
  }
  reactor_.wake();
}

void TcpTransport::drain_sends() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_.swap(pending_);
  }
  for (auto& [to, payload] : batch_) {
    Outgoing& out = outgoing_[to];
    const std::size_t bytes = payload.size() + 4;
    const int calls = out.conn.push(std::move(payload));
    if (calls < 0) {
      // The overflow rule: the peer is not keeping up. Dropping its link
      // loses these frames, which the protocol detects and resyncs.
      c_send_drops_->add();
      close_outgoing(out);
      continue;
    }
    c_writev_calls_->add(static_cast<std::uint64_t>(calls));
    c_msgs_out_->add();
    c_bytes_out_->add(bytes);
  }
  batch_.clear();
  // Write at once: one sendmsg per link carries the whole burst.
  for (auto& [peer, out] : outgoing_) {
    if (out.conn.queued_bytes() > 0) kick(peer, out);
  }
}

void TcpTransport::kick(NodeId peer, Outgoing& out) {
  if (!out.conn.is_open()) {
    dial(peer, out);
  } else if (const int calls = out.conn.flush(); calls < 0) {
    close_outgoing(out);
  } else {
    c_writev_calls_->add(static_cast<std::uint64_t>(calls));
  }
}

void TcpTransport::dial(NodeId peer, Outgoing& out) {
  const TimePoint now = clock_.now();
  if (now >= out.next_dial_ns) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = cfg_.ports.find(peer);
      if (it != cfg_.ports.end()) addr.sin_port = htons(it->second);
    }
    ::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr);
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (addr.sin_port == 0 ||
        (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
         errno != EINPROGRESS)) {
      ::close(fd);
      fd = -1;
    }
    BufWriter hello(8);
    hello.u32(kHelloMagic);
    hello.u32(cfg_.id);
    auto on_event = [this, peer](std::uint32_t ev) { on_outgoing(peer, ev); };
    if (fd >= 0 &&
        out.conn.attach(fd, reactor_, on_event, std::move(hello).take())) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      c_connects_->add();
      kick(peer, out);  // sendmsg reports EAGAIN until the connect completes
      return;
    }
    out.next_dial_ns = now + millis(cfg_.reconnect_ms);
  }
  // Port unknown yet, refused, or backing off: retry while frames wait.
  if (out.redial_armed) return;
  out.redial_armed = true;
  reactor_.after(out.next_dial_ns - now, [this, peer] {
    Outgoing& o = outgoing_[peer];
    o.redial_armed = false;
    if (!o.conn.is_open() && o.conn.queued_bytes() > 0) dial(peer, o);
  });
}

void TcpTransport::close_outgoing(Outgoing& out) {
  if (out.conn.is_open()) c_conn_breaks_->add();
  // Unwritten frames are lost with the link.
  c_send_drops_->add(out.conn.close());
  out.next_dial_ns = clock_.now() + millis(cfg_.reconnect_ms);
}

void TcpTransport::on_outgoing(NodeId peer, std::uint32_t events) {
  Outgoing& out = outgoing_[peer];
  // Outgoing links are write-only: input (EOF included), a hang-up or an
  // error ends the link.
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    close_outgoing(out);
    return;
  }
  kick(peer, out);  // connected, or socket buffer space freed
}

void TcpTransport::on_inbound(std::uint64_t id) {
  auto it = inbound_.find(id);
  if (it == inbound_.end()) return;
  Handler h;
  {
    std::lock_guard<std::mutex> lk(mu_);
    h = handler_;
  }
  Inbound& in = it->second;
  if (!in.conn.read([&] { return parse_inbound(in, h); })) inbound_.erase(it);
}

bool TcpTransport::parse_inbound(Inbound& in, const Handler& h) {
  if (in.peer == kNoNode) {
    const auto hello = in.conn.input();
    if (hello.size() < 8) return true;
    std::uint32_t magic = 0;
    std::uint32_t from = 0;
    std::memcpy(&magic, hello.data(), 4);
    std::memcpy(&from, hello.data() + 4, 4);
    if (magic != kHelloMagic || from == kNoNode) return false;
    in.peer = from;
    in.conn.consume(8);
  }
  return in.conn.pop_frames([&](Bytes payload) {
    c_msgs_in_->add();
    c_bytes_in_->add(4 + payload.size());
    if (h) h(in.peer, std::move(payload));
  });
}

}  // namespace zab::net
