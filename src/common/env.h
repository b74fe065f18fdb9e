// Environment abstraction between protocol logic and its runtime.
//
// Protocol state machines (zab::Peer, paxos::Replica) are passive and
// single-threaded: they react to messages and timers and emit sends and new
// timers through this interface. Two implementations exist:
//   * sim::NodeEnv   — deterministic discrete-event simulation
//   * net::RuntimeEnv — real threads, real clock, TCP transport
// Protocol code never includes simulator or socket headers.
#pragma once

#include <cstdint>
#include <functional>

#include "common/buffer.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"

namespace zab {

using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

class Env {
 public:
  virtual ~Env() = default;

  /// Identity of the node this environment belongs to.
  [[nodiscard]] virtual NodeId self() const = 0;

  /// Current time (virtual in simulation, monotonic otherwise).
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Fire-and-forget message to a peer. Delivery is unreliable (may be
  /// dropped/delayed) but FIFO per (sender, receiver) pair while both are up.
  virtual void send(NodeId to, Bytes payload) = 0;

  /// One-shot timer. The callback runs on the node's event loop. Returns an
  /// id usable with cancel_timer; ids are never reused within a node's life.
  virtual TimerId set_timer(Duration delay, std::function<void()> fn) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Per-node deterministic randomness.
  virtual Rng& rng() = 0;
};

}  // namespace zab
