// In-process transport: nodes in one process exchange messages through a
// shared hub. Used by the quickstart example and the threaded-runtime tests;
// semantics match TCP loopback (reliable, FIFO per pair) minus the sockets.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/transport.h"

namespace zab::net {

class InprocHub;

/// Per-node endpoint registered with a hub.
class InprocTransport final : public Transport {
 public:
  InprocTransport(InprocHub& hub, NodeId id);
  ~InprocTransport() override;

  void send(NodeId to, Bytes payload) override;
  void set_handler(Handler h) override;
  void shutdown() override;

  [[nodiscard]] NodeId id() const { return id_; }

 private:
  friend class InprocHub;
  InprocHub* hub_;
  NodeId id_;
  std::mutex mu_;
  Handler handler_;
  bool up_ = false;
};

/// Shared registry; thread-safe.
class InprocHub {
 public:
  /// Deliver `payload` to `to` (invokes its handler on the caller's thread,
  /// under the receiver's lock; receivers post to their event loop and must
  /// not send from the handler).
  void deliver(NodeId from, NodeId to, Bytes payload);

 private:
  friend class InprocTransport;
  void attach(NodeId id, InprocTransport* t);
  void detach(NodeId id);

  std::mutex mu_;
  std::unordered_map<NodeId, InprocTransport*> nodes_;
};

}  // namespace zab::net
