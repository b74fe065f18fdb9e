// Env implementation for real deployments: one event-loop thread per node.
//
// The protocol state machine remains single-threaded — everything (incoming
// messages, timer callbacks, client submissions) is funneled through post()
// onto the loop thread, preserving the same execution model the simulator
// provides. Timers live in loop-local structures (only the loop thread
// touches them); the cross-thread task queue is the only shared state.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/time.h"
#include "net/tcp_transport.h"

namespace zab::net {

class RuntimeEnv final : public Env {
 public:
  RuntimeEnv(NodeId id, std::uint64_t seed, TcpTransport& transport);
  ~RuntimeEnv() override;
  RuntimeEnv(const RuntimeEnv&) = delete;
  RuntimeEnv& operator=(const RuntimeEnv&) = delete;

  /// Start the loop thread. `init` runs first, on the loop (construct and
  /// start the protocol node there).
  void start(std::function<void()> init);

  /// Run `fn` on the loop thread (thread-safe; callable from anywhere).
  void post(std::function<void()> fn);

  /// Run `fn` on the loop thread and wait for it to finish (before start()
  /// and after stop(): on the caller's thread).
  void run_sync(std::function<void()> fn);

  /// Stop the loop and join the thread. Safe to call twice.
  void stop();

  // --- Env -------------------------------------------------------------------
  [[nodiscard]] NodeId self() const override { return id_; }
  [[nodiscard]] TimePoint now() const override { return clock_.now(); }
  void send(NodeId to, Bytes payload) override {
    transport_->send(to, std::move(payload));
  }
  TimerId set_timer(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  void loop();

  NodeId id_;
  Rng rng_;
  TcpTransport* transport_;
  SystemClock clock_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool running_ = false;
  std::thread thread_;

  // Loop-local (no lock needed: only the loop thread touches these).
  struct Timer {
    TimePoint deadline;
    std::function<void()> fn;
  };
  std::map<TimerId, Timer> timers_;
  TimerId next_timer_ = 1;
};

}  // namespace zab::net
