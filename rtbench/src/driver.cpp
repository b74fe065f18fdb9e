#include "driver.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

namespace rtbench {

namespace {

constexpr std::int64_t kMaxPollNs = 5'000'000;
constexpr std::int64_t kSpinNs = 50'000;
constexpr std::int64_t kDrainNs = 10'000'000'000;

}  // namespace

Driver::Driver(std::vector<GenConn*> conns, Checker& checker,
               const WorkloadSpec& spec)
    : conns_(std::move(conns)),
      checker_(&checker),
      spec_(spec),
      next_seq_(conns_.size(), 1) {}

std::vector<OpPlan> Driver::plan_open(double rate, std::uint64_t count,
                                      std::mt19937_64& rng) const {
  std::vector<OpPlan> plan;
  plan.reserve(count);
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> key(0, spec_.znodes - 1);
  double t = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    t += gap(rng);
    OpPlan op;
    op.due_off_ns = static_cast<std::int64_t>(t * 1e9);
    op.conn = static_cast<std::uint32_t>(i % conns_.size());
    op.write = unit(rng) >= spec_.read_frac;
    op.key = key(rng);
    plan.push_back(op);
  }
  return plan;
}

int Driver::begin_phase(const std::string& name) {
  PhaseResult r;
  r.name = name;
  phases_.push_back(std::move(r));
  return static_cast<int>(phases_.size()) - 1;
}

void Driver::issue(std::uint32_t conn, bool write, std::uint32_t key,
                   std::int64_t due_ns, int phase) {
  zab::pb::ClientRequest req;
  Pending p;
  p.due_ns = due_ns;
  p.key = key;
  p.phase = phase;
  p.is_write = write;
  if (write) {
    p.seq = next_seq_[conn]++;
    const ValueTag tag{conn, p.seq, key};
    req.kind = zab::pb::ClientOpKind::kWrite;
    zab::pb::Op op;
    op.type = zab::pb::OpType::kSetData;
    op.path = key_path(key);
    op.data = make_value(tag, spec_.value_bytes);
    req.ops.push_back(std::move(op));
    checker_->on_write_sent(conn, p.seq, key);
  } else {
    req.kind = zab::pb::ClientOpKind::kGetData;
    req.path = key_path(key);
    req.consistency = zab::pb::ReadConsistency::kSession;
    req.fence_zxid = conns_[conn]->fence();
    p.fence = req.fence_zxid;
  }
  ++phases_[static_cast<std::size_t>(phase)].attempted;
  conns_[conn]->queue(std::move(req), p);
}

void Driver::issue_preload(std::uint32_t conn, std::uint32_t key, int phase) {
  zab::pb::ClientRequest req;
  req.kind = zab::pb::ClientOpKind::kWrite;
  zab::pb::Op op;
  op.type = zab::pb::OpType::kCreate;
  op.path = key_path(key);
  op.data = make_value(ValueTag{ValueTag::kPreload, 0, key}, spec_.value_bytes);
  req.ops.push_back(std::move(op));
  Pending p;
  p.due_ns = now_ns();
  p.is_write = true;
  p.key = key;
  p.phase = phase;
  ++phases_[static_cast<std::size_t>(phase)].attempted;
  conns_[conn]->queue(std::move(req), p);
}

void Driver::handle(const Completion& c) {
  const std::uint32_t conn = c.conn;
  PhaseResult& ph = phases_[static_cast<std::size_t>(c.req.phase)];
  ph.late_us.push_back(static_cast<double>(c.req.sent_ns - c.req.due_ns) / 1e3);
  if (c.resp.code != zab::Code::kOk) {
    ++ph.failed;
    ++ph.failed_by_code[static_cast<int>(c.resp.code)];
    return;
  }
  ++ph.ok;
  const std::uint64_t zxid = c.resp.zxid.packed();
  if (c.req.is_write) {
    const ValueTag tag = c.req.phase == preload_phase_
                             ? ValueTag{ValueTag::kPreload, 0, c.req.key}
                             : ValueTag{conn, c.req.seq, c.req.key};
    checker_->on_write_ack(conn, tag, zxid);
    ++ph.writes_ok;
  } else {
    checker_->on_read(conn, c.req.key, c.req.fence, zxid, c.resp.data);
    ++ph.reads_ok;
  }
  const double lat = static_cast<double>(c.recv_ns - c.req.due_ns) / 1e3;
  ph.lat_us.push_back(lat);
  (c.req.is_write ? ph.write_lat_us : ph.read_lat_us).push_back(lat);
  if (record_spans_ && c.req.is_write) {
    spans_.push_back(WriteSpan{conn, zxid, c.req.due_ns, c.req.sent_ns,
                               c.recv_ns});
  }
}

std::size_t Driver::pump(std::int64_t until_ns, std::vector<Completion>& done) {
  done.clear();
  std::int64_t now = now_ns();
  pollfd pfds[8];
  const std::size_t n = std::min<std::size_t>(conns_.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    if (conns_[i]->wants_write() && !conns_[i]->flush(now)) broken_ = true;
    pfds[i] = {conns_[i]->fd(),
               static_cast<short>(POLLIN |
                                  (conns_[i]->wants_write() ? POLLOUT : 0)),
               0};
  }
  const std::int64_t wait = std::clamp<std::int64_t>(until_ns - now, 0,
                                                     kMaxPollNs);
  timespec ts{static_cast<time_t>(wait / 1'000'000'000),
              static_cast<long>(wait % 1'000'000'000)};
  const int rc = ::ppoll(pfds, n, &ts, nullptr);
  if (rc < 0) {
    if (errno != EINTR) broken_ = true;
    return 0;
  }
  if (rc == 0) return 0;
  now = now_ns();
  std::size_t handled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pfds[i].revents & POLLOUT) {
      if (!conns_[i]->flush(now)) broken_ = true;
    }
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
      const std::size_t before = done.size();
      if (!conns_[i]->on_readable(now, done)) broken_ = true;
      for (std::size_t k = before; k < done.size(); ++k) {
        done[k].conn = static_cast<std::uint32_t>(i);
        handle(done[k]);
        ++handled;
      }
    }
  }
  return handled;
}

std::uint64_t Driver::outstanding() const {
  std::uint64_t n = 0;
  for (const GenConn* c : conns_) n += c->outstanding();
  return n;
}

std::uint64_t Driver::drain(std::int64_t deadline_ns) {
  std::vector<Completion> done;
  while (!broken_ && outstanding() > 0 && now_ns() < deadline_ns) {
    pump(deadline_ns, done);
  }
  return outstanding();
}

PhaseResult Driver::run_open(const std::string& name,
                             const std::vector<OpPlan>& plan,
                             std::int64_t drain_ns, bool record_spans) {
  const int phase = begin_phase(name);
  record_spans_ = record_spans;
  const std::int64_t start = now_ns() + 1'000'000;
  std::vector<Completion> done;
  std::size_t next = 0;
  while (!broken_ && next < plan.size()) {
    const std::int64_t now = now_ns();
    while (next < plan.size() && start + plan[next].due_off_ns <= now) {
      const OpPlan& op = plan[next];
      issue(op.conn, op.write, op.key, start + op.due_off_ns, phase);
      ++next;
    }
    const std::int64_t until =
        next < plan.size() ? start + plan[next].due_off_ns : now;
    // Sleep until kSpinNs before the next due time, then poll without
    // sleeping: a wake-up from ppoll takes 5-30 µs on a VM, and every send
    // would be that late.
    pump(until - kSpinNs, done);
  }
  drain(now_ns() + drain_ns);
  record_spans_ = false;
  return phases_[static_cast<std::size_t>(phase)];
}

PhaseResult Driver::run_closed(const std::string& name, std::uint32_t window,
                               std::int64_t duration_ns, std::size_t slices,
                               std::mt19937_64& rng) {
  const int phase = begin_phase(name);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> key(0, spec_.znodes - 1);
  auto next_op = [&](std::uint32_t conn) {
    const bool write = unit(rng) >= spec_.read_frac;
    issue(conn, write, key(rng), now_ns(), phase);
  };
  const std::int64_t start = now_ns();
  const std::int64_t end = start + duration_ns;
  std::vector<std::uint64_t> per_slice(slices, 0);
  // A connection is topped up to `window` once a quarter of it has
  // completed, so each send carries several requests: one send per
  // completion would make the generator's own syscalls a large share of
  // this phase.
  const std::uint32_t refill = std::max<std::uint32_t>(1, window / 4);
  std::vector<Completion> done;
  while (!broken_ && now_ns() < end) {
    for (std::uint32_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c]->outstanding() + refill > window) continue;
      while (conns_[c]->outstanding() < window) next_op(c);
    }
    pump(end, done);
    for (const Completion& c : done) {
      if (c.recv_ns >= end) continue;
      const auto s = static_cast<std::size_t>(
          (c.recv_ns - start) * static_cast<std::int64_t>(slices) /
          duration_ns);
      ++per_slice[std::min(s, slices - 1)];
    }
  }
  drain(now_ns() + kDrainNs);
  PhaseResult& ph = phases_[static_cast<std::size_t>(phase)];
  const double slice_s =
      static_cast<double>(duration_ns) / 1e9 / static_cast<double>(slices);
  for (const std::uint64_t n : per_slice) {
    ph.slice_rates.push_back(static_cast<double>(n) / slice_s);
  }
  return ph;
}

bool Driver::preload(std::uint32_t window, std::int64_t deadline_ns) {
  const int phase = begin_phase("preload");
  preload_phase_ = phase;
  std::uint32_t next_key = 0;
  std::vector<std::uint32_t> inflight(conns_.size(), 0);
  auto top_up = [&] {
    for (std::uint32_t c = 0; c < conns_.size(); ++c) {
      while (inflight[c] < window && next_key < spec_.znodes) {
        issue_preload(c, next_key++, phase);
        ++inflight[c];
      }
    }
  };
  top_up();
  std::vector<Completion> done;
  while (!broken_ && now_ns() < deadline_ns &&
         (next_key < spec_.znodes || outstanding() > 0)) {
    pump(deadline_ns, done);
    for (const Completion& c : done) --inflight[c.conn];
    top_up();
  }
  const PhaseResult& ph = phases_[static_cast<std::size_t>(phase)];
  return !broken_ && outstanding() == 0 && ph.failed == 0 &&
         ph.ok == spec_.znodes;
}

}  // namespace rtbench
