#include "net/runtime_env.h"

#include <algorithm>
#include <future>
#include <vector>

namespace zab::net {

RuntimeEnv::RuntimeEnv(NodeId id, std::uint64_t seed, TcpTransport& transport)
    : id_(id), rng_(seed ^ (0x9e3779b97f4a7c15ull * id)), transport_(&transport) {}

RuntimeEnv::~RuntimeEnv() { stop(); }

void RuntimeEnv::start(std::function<void()> init) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    running_ = true;
    if (init) tasks_.push_back(std::move(init));
  }
  thread_ = std::thread([this] { loop(); });
}

void RuntimeEnv::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    tasks_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void RuntimeEnv::run_sync(std::function<void()> fn) {
  // Inline on the loop thread, and when no loop thread runs.
  if (!thread_.joinable() || std::this_thread::get_id() == thread_.get_id()) {
    fn();
    return;
  }
  std::promise<void> done;
  post([&fn, &done] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

void RuntimeEnv::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    running_ = false;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

TimerId RuntimeEnv::set_timer(Duration delay, std::function<void()> fn) {
  // Loop-thread only (protocol code runs on the loop).
  const TimerId id = next_timer_++;
  timers_[id] = Timer{clock_.now() + delay, std::move(fn)};
  return id;
}

void RuntimeEnv::cancel_timer(TimerId id) { timers_.erase(id); }

void RuntimeEnv::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (!running_ && tasks_.empty()) break;

    // Drain one batch of cross-thread tasks.
    std::deque<std::function<void()>> batch;
    batch.swap(tasks_);
    lk.unlock();
    for (auto& t : batch) t();

    // Fire due timers (loop-local; callbacks may add/cancel timers).
    const TimePoint now = clock_.now();
    std::vector<std::function<void()>> due;
    for (auto it = timers_.begin(); it != timers_.end();) {
      if (it->second.deadline <= now) {
        due.push_back(std::move(it->second.fn));
        it = timers_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& fn : due) fn();

    // Sleep until the next timer deadline or new work.
    TimePoint next = 0;
    bool have_next = false;
    for (const auto& [id, t] : timers_) {
      if (!have_next || t.deadline < next) {
        next = t.deadline;
        have_next = true;
      }
    }
    lk.lock();
    if (!tasks_.empty()) continue;
    if (!running_) continue;  // re-check exit condition
    if (have_next) {
      const Duration wait = std::max<Duration>(next - clock_.now(), 0);
      cv_.wait_for(lk, std::chrono::nanoseconds(wait),
                   [this] { return !tasks_.empty() || !running_; });
    } else {
      cv_.wait(lk, [this] { return !tasks_.empty() || !running_; });
    }
  }
}

}  // namespace zab::net
