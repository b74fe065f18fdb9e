#include "proc_stats.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace rtbench {

namespace {

// Contents of a small /proc file; empty on failure.
std::string slurp(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

pid_t this_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::set<pid_t> list_tids() {
  std::set<pid_t> out;
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out.insert(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  ::closedir(d);
  return out;
}

std::optional<ThreadSample> sample_thread(pid_t tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid) + "/";
  ThreadSample s;
  const std::string sched = slurp(base + "schedstat");
  if (sched.empty()) return std::nullopt;  // the thread has exited
  long long cpu = 0, runq = 0;
  if (std::sscanf(sched.c_str(), "%lld %lld", &cpu, &runq) == 2) {
    s.cpu_ns = cpu;
    s.runq_ns = runq;
  }
  // stat: "pid (comm) state ..." — comm may hold spaces, so split after
  // the last ')'. utime and stime are fields 14 and 15.
  const std::string stat = slurp(base + "stat");
  if (const auto rp = stat.rfind(')'); rp != std::string::npos) {
    const char* p = stat.c_str() + rp + 2;
    long long field = 0;
    for (int i = 3; i <= 15 && *p; ++i) {
      char* next = nullptr;
      if (i == 3) {  // state is a letter
        while (*p && *p != ' ') ++p;
        while (*p == ' ') ++p;
        continue;
      }
      field = std::strtoll(p, &next, 10);
      if (i == 14) s.utime_ticks = field;
      if (i == 15) s.stime_ticks = field;
      p = next;
      while (*p == ' ') ++p;
    }
  }
  const std::string status = slurp(base + "status");
  if (const auto pos = status.find("voluntary_ctxt_switches:");
      pos != std::string::npos &&
      (pos == 0 || status[pos - 1] == '\n')) {
    s.wakeups = std::strtoll(status.c_str() + pos + 24, nullptr, 10);
  }
  return s;
}

ThreadSamples sample_threads() {
  ThreadSamples out;
  for (const pid_t tid : list_tids()) {
    // A thread that exits between listing and reading is skipped.
    if (const auto s = sample_thread(tid)) out.emplace(tid, *s);
  }
  return out;
}

double vmrss_mib() {
  const std::string status = slurp("/proc/self/status");
  const auto pos = status.find("VmRSS:");
  if (pos == std::string::npos) return 0.0;
  const long long kib = std::strtoll(status.c_str() + pos + 6, nullptr, 10);
  return static_cast<double>(kib) / 1024.0;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

GroupCost group_cost(const ThreadSamples& start, const ThreadSamples& end,
                     const std::set<pid_t>& tids) {
  GroupCost g;
  for (const pid_t tid : tids) {
    const auto e = end.find(tid);
    if (e == end.end()) continue;
    ThreadSample s0;
    if (const auto s = start.find(tid); s != start.end()) s0 = s->second;
    const ThreadSample& s1 = e->second;
    g.cpu_ns += static_cast<double>(s1.cpu_ns - s0.cpu_ns);
    g.runq_ns += static_cast<double>(s1.runq_ns - s0.runq_ns);
    g.user_ticks += static_cast<double>(s1.utime_ticks - s0.utime_ticks);
    g.sys_ticks += static_cast<double>(s1.stime_ticks - s0.stime_ticks);
    g.wakeups += static_cast<double>(s1.wakeups - s0.wakeups);
  }
  return g;
}

}  // namespace rtbench
