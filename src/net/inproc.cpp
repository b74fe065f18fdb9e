#include "net/inproc.h"

namespace zab::net {

InprocTransport::InprocTransport(InprocHub& hub, NodeId id)
    : hub_(&hub), id_(id) {}

InprocTransport::~InprocTransport() { shutdown(); }

void InprocTransport::send(NodeId to, Bytes payload) {
  hub_->deliver(id_, to, std::move(payload));
}

void InprocTransport::set_handler(Handler h) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    handler_ = std::move(h);
    up_ = true;
  }
  hub_->attach(id_, this);
}

void InprocTransport::shutdown() {
  hub_->detach(id_);
  std::lock_guard<std::mutex> lk(mu_);
  up_ = false;
  handler_ = nullptr;
}

void InprocHub::attach(NodeId id, InprocTransport* t) {
  std::lock_guard<std::mutex> lk(mu_);
  nodes_[id] = t;
}

void InprocHub::detach(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  nodes_.erase(id);
}

void InprocHub::deliver(NodeId from, NodeId to, Bytes payload) {
  // The receiver's lock is taken before the hub's is released and held
  // across its handler: shutdown() detaches first and then waits for a
  // delivery in progress, and none starts after it, so the receiver's owner
  // may free what the handler uses once shutdown() returns.
  std::unique_lock<std::mutex> hub_lk(mu_);
  auto it = nodes_.find(to);
  if (it == nodes_.end()) return;  // receiver down: drop, like the network
  InprocTransport* target = it->second;
  std::lock_guard<std::mutex> lk(target->mu_);
  hub_lk.unlock();
  if (target->up_ && target->handler_) {
    target->handler_(from, std::move(payload));
  }
}

}  // namespace zab::net
