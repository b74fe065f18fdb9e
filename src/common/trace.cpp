#include "common/trace.h"

namespace zab::trace {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kPropose: return "PROPOSE";
    case Stage::kLogFsync: return "LOG_FSYNC";
    case Stage::kAck: return "ACK";
    case Stage::kCommit: return "COMMIT";
    case Stage::kDeliver: return "DELIVER";
    case Stage::kElectionStart: return "ELECTION_START";
    case Stage::kElected: return "ELECTED";
    case Stage::kLeaderActive: return "LEADER_ACTIVE";
    case Stage::kFollowerActive: return "FOLLOWER_ACTIVE";
    case Stage::kClientRecv: return "CLIENT_RECV";
    case Stage::kClientReply: return "CLIENT_REPLY";
  }
  return "?";
}

std::optional<Stage> stage_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto s = static_cast<Stage>(i);
    if (name == stage_name(s)) return s;
  }
  return std::nullopt;
}

TraceRing::TraceRing(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TraceRing::clear() {
  head_ = 0;
  size_ = 0;
}

std::vector<Event> TraceRing::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<Event> TraceRing::events_for(Zxid z) const {
  std::vector<Event> out;
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    const Event& e = ring_[(start + i) % ring_.size()];
    if (e.zxid == z) out.push_back(e);
  }
  return out;
}

TraceRing::StageTimes TraceRing::stage_times(Zxid z) const {
  StageTimes st;
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    const Event& e = ring_[(start + i) % ring_.size()];
    if (e.zxid != z) continue;
    auto& slot = st.t[static_cast<std::size_t>(e.stage)];
    if (slot < 0) slot = e.t;
  }
  return st;
}

}  // namespace zab::trace
