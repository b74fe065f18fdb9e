// The load generator: one thread, one GenConn per replica, pipelined.
//
//   run_open()   open loop: requests go out at precomputed Poisson due
//                times whatever the replies do, and each is timed from its
//                due time, so a stall also charges the requests queued
//                behind it; how late the generator itself sent is recorded.
//   run_closed() closed loop: up to a fixed number of requests outstanding
//                per connection, topped up once a quarter has completed.
//   preload()    creates every znode before the timed phases.
//
// Every reply goes through the Checker before it is counted.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "checker.h"
#include "gen_conn.h"

namespace rtbench {

struct WorkloadSpec {
  std::string name;
  std::uint32_t znodes = 1000;
  std::size_t value_bytes = 128;
  double read_frac = 0.0;  // share of ops that are kSession getData
  bool durable = false;    // fsync + group commit, as zab_server --fsync --group-commit
  double lo_rate = 0;  // ops/s
  double hi_rate = 0;  // ops/s
};

/// One planned request of an open-loop phase.
struct OpPlan {
  std::int64_t due_off_ns = 0;  // from the phase start
  std::uint32_t conn = 0;
  bool write = true;
  std::uint32_t key = 0;
};

struct PhaseResult {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // answered with a non-OK code
  std::map<int, std::uint64_t> failed_by_code;
  // Successful requests, in completion order (µs).
  std::vector<double> lat_us;
  std::vector<double> read_lat_us;
  std::vector<double> write_lat_us;
  std::vector<double> late_us;  // open loop: sent - due
  std::uint64_t reads_ok = 0;
  std::uint64_t writes_ok = 0;
  // Closed loop: completions per equal slice of the measured interval,
  // as ops/s.
  std::vector<double> slice_rates;
};

/// A completed write, as the generator saw it (traced pass only).
struct WriteSpan {
  std::uint32_t conn = 0;
  std::uint64_t zxid = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
};

class Driver {
 public:
  Driver(std::vector<GenConn*> conns, Checker& checker,
         const WorkloadSpec& spec);

  /// `count` requests at Poisson rate `rate` (ops/s), round-robin over the
  /// connections, with the workload's op mix and uniform keys.
  [[nodiscard]] std::vector<OpPlan> plan_open(double rate, std::uint64_t count,
                                              std::mt19937_64& rng) const;

  /// Runs `plan`; waits up to `drain_ns` after the last send for replies.
  PhaseResult run_open(const std::string& name, const std::vector<OpPlan>& plan,
                       std::int64_t drain_ns, bool record_spans);

  /// Keeps up to `window` requests outstanding per connection for
  /// `duration_ns`, then drains. Throughput counts completions inside the interval only,
  /// per each of `slices` (>= 1) equal slices of it.
  PhaseResult run_closed(const std::string& name, std::uint32_t window,
                         std::int64_t duration_ns, std::size_t slices,
                         std::mt19937_64& rng);

  /// Creates every znode (pipelined over all connections). False on any
  /// failed create or on timeout.
  bool preload(std::uint32_t window, std::int64_t deadline_ns);

  /// Waits until nothing is outstanding or `deadline_ns`; returns what is
  /// still outstanding.
  std::uint64_t drain(std::int64_t deadline_ns);

  [[nodiscard]] std::uint64_t outstanding() const;
  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] const std::vector<WriteSpan>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<PhaseResult>& phases() const {
    return phases_;
  }

 private:
  void issue(std::uint32_t conn, bool write, std::uint32_t key,
             std::int64_t due_ns, int phase);
  void issue_preload(std::uint32_t conn, std::uint32_t key, int phase);
  /// Polls every connection until `until_ns` (or one wakeup), flushing and
  /// handling replies. Returns the completions handled.
  std::size_t pump(std::int64_t until_ns, std::vector<Completion>& done);
  void handle(const Completion& c);
  int begin_phase(const std::string& name);

  std::vector<GenConn*> conns_;
  Checker* checker_;
  WorkloadSpec spec_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<PhaseResult> phases_;
  std::vector<WriteSpan> spans_;
  bool record_spans_ = false;
  bool broken_ = false;
  int preload_phase_ = -1;
};

}  // namespace rtbench
