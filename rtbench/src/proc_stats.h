// Per-thread and per-process cost counters read from /proc/self, so the
// benchmark can attribute CPU, wakeups and run-queue wait to threads of
// the program under test without that program naming its threads.
//
//   /proc/self/task/<tid>/schedstat  on-CPU ns, run-queue wait ns
//   /proc/self/task/<tid>/stat       utime / stime in clock ticks
//   /proc/self/task/<tid>/status     voluntary_ctxt_switches (wakeups)
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace rtbench {

struct ThreadSample {
  std::int64_t cpu_ns = 0;
  std::int64_t runq_ns = 0;
  std::int64_t utime_ticks = 0;
  std::int64_t stime_ticks = 0;
  std::int64_t wakeups = 0;
};

using ThreadSamples = std::map<pid_t, ThreadSample>;

[[nodiscard]] pid_t this_tid();
/// Every live thread of this process.
[[nodiscard]] std::set<pid_t> list_tids();
/// One thread's counters; nullopt once it has exited.
[[nodiscard]] std::optional<ThreadSample> sample_thread(pid_t tid);
/// One sample per live thread.
[[nodiscard]] ThreadSamples sample_threads();
/// VmRSS of this process in MiB.
[[nodiscard]] double vmrss_mib();
/// User + system CPU of the whole process so far (getrusage), in ns.
[[nodiscard]] std::int64_t process_cpu_ns();

/// Cost of a group of threads between two samples.
struct GroupCost {
  double cpu_ns = 0;
  double runq_ns = 0;
  double user_ticks = 0;
  double sys_ticks = 0;
  double wakeups = 0;
  [[nodiscard]] double sys_frac() const {
    const double t = user_ticks + sys_ticks;
    return t > 0 ? sys_ticks / t : 0.0;
  }
};

/// Sums end - start over `tids` (a thread missing from `start` counts from
/// zero, one missing from `end` counts nothing).
[[nodiscard]] GroupCost group_cost(const ThreadSamples& start,
                                   const ThreadSamples& end,
                                   const std::set<pid_t>& tids);

}  // namespace rtbench
