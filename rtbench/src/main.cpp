// rtbench: one workload against a 3-voter RuntimeCluster over loopback TCP
// with FileStorage, driven by the in-process generator (driver.h).
//
//   rtbench --workload NAME --seed N --seconds S --trace 0|1
//           --data-dir DIR [--spans-out FILE]
//
// The workloads are the constant table kWorkloads below.
//
// Untraced pass (--trace 0): several trials, each on a fresh cluster: set
// up (timed: setup_s), warm up, then the timed phases lo (open loop, low
// rate), hi (open loop, high rate, fixed op count) and peak (closed loop).
// Every end-to-end metric is the median over trials. Traced pass
// (--trace 1): one trial that runs hi untraced and then hi traced (thread
// costs, registry deltas, allocation count, per-write spans joined to the
// merged trace) and prints the per-layer metrics. Both passes run the
// correctness check and exit non-zero, printing no metrics, when it fails.
//
// The last line of stdout is one JSON object:
//   {"correct":true,"attempted":N,"failed":F,"metrics":{name:{value,unit}}}
#include <linux/magic.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "checker.h"
#include "common/build_info.h"
#include "driver.h"
#include "gen_conn.h"
#include "harness/runtime_cluster.h"
#include "layers.h"
#include "proc_stats.h"
#include "stats.h"

extern char** environ;

namespace rtbench {
namespace {

// The workloads. The rates are absolute and stay fixed when the program
// gets faster, so the same offered load is then served at a lower latency
// and cost. They were set once, on the commit that added this benchmark, to
// about 5 % (lo) and 15-25 % (hi) of each workload's peak_ops_s on the
// measuring machine (README.md, "Workloads").
const WorkloadSpec kWorkloads[] = {
    {.name = "write_small", .znodes = 1000, .value_bytes = 128,
     .read_frac = 0.0, .durable = false, .lo_rate = 1600, .hi_rate = 6500},
    {.name = "write_durable", .znodes = 1000, .value_bytes = 1024,
     .read_frac = 0.0, .durable = true, .lo_rate = 1400, .hi_rate = 6000},
    {.name = "read_mostly", .znodes = 20000, .value_bytes = 1024,
     .read_frac = 0.9, .durable = false, .lo_rate = 8000, .hi_rate = 25000},
};

constexpr std::uint32_t kReplicas = 3;
constexpr std::uint32_t kSessionTimeoutMs = 120'000;
// Limits on the generator itself. A run that breaks one is invalid (exit
// 3): the generator, not the program, may then have set a figure.
// Open loop: latency is timed from the due time, so the generator's median
// send lateness must stay below this share of the phase's median latency.
constexpr double kLateShareLimit = 0.1;
// Closed loop: the generator's on-CPU share of the peak phase's wall time.
// Near 1 the generator would bound peak_ops_s, not the cluster.
constexpr double kPeakBusyLimit = 0.9;
// The untraced pass runs this many trials, each on a fresh cluster, and
// reports the median over trials: cluster-to-cluster differences (thread
// placement, which replica leads) and stalls then move one trial, not the
// result, and memory stays bounded by one trial's log.
constexpr int kTrials = 5;
// peak: requests outstanding per connection.
constexpr std::uint32_t kPeakWindow = 32;
// peak_ops_s of a trial is the median rate over this many equal slices.
constexpr std::size_t kPeakSlices = 6;
// Untimed warm-up at the hi rate, on every fresh cluster.
constexpr double kWarmupS = 0.5;
// How long a phase waits for its last replies.
constexpr std::int64_t kDrainNs = 10'000'000'000;

struct Options {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::string names;
  for (const WorkloadSpec& w : kWorkloads) names += (names.empty() ? "" : "|") + w.name;
  std::fprintf(stderr,
               "rtbench: %s\n"
               "usage: rtbench --workload %s --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--spans-out FILE]\n",
               msg.c_str(), names.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::string workload;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") workload = need(i);
    else if (a == "--seed") o.seed = std::strtoull(need(i), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atoi(need(i));
    else if (a == "--trace") o.trace = std::atoi(need(i)) != 0;
    else if (a == "--data-dir") o.data_dir = need(i);
    else if (a == "--spans-out") o.spans_out = need(i);
    else usage("unknown argument " + a);
  }
  if (workload.empty() || o.data_dir.empty()) usage("--workload and --data-dir are required");
  if (o.seconds < 1) usage("--seconds must be at least 1");
  const auto* w = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                               [&](const WorkloadSpec& s) { return s.name == workload; });
  if (w == std::end(kWorkloads)) usage("unknown workload " + workload);
  o.spec = *w;
  return o;
}

// Filesystem of `dir`. The log must sit on a disk: on tmpfs an fsync costs
// nothing, and write_durable would not measure a log force.
std::string fs_type(const std::string& dir) {
  struct statfs s {};
  if (::statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case EXT4_SUPER_MAGIC: return "ext4";  // ext2 and ext3 share it
    case TMPFS_MAGIC: return "tmpfs";
    case XFS_SUPER_MAGIC: return "xfs";
    case BTRFS_SUPER_MAGIC: return "btrfs";
    case OVERLAYFS_SUPER_MAGIC: return "overlayfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
  return buf;
}

// Sets the calling thread's timer slack to 1 ns while alive, so ppoll wakes
// the generator at a request's due time and not up to the default 50 us
// after it. Made only once the cluster's threads exist: a new thread takes
// the slack of the thread that creates it, and the program under test must
// keep its default.
class TightTimerSlack {
 public:
  TightTimerSlack() : saved_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~TightTimerSlack() {
    if (saved_ > 0) ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
  }
  TightTimerSlack(const TightTimerSlack&) = delete;
  TightTimerSlack& operator=(const TightTimerSlack&) = delete;

 private:
  long saved_;
};

// Unsets every ZAB_* variable: ZabNode and FileStorage constructors read
// the environment, and the program under test must run at its defaults.
std::vector<std::string> clear_zab_env() {
  std::vector<std::string> names;
  for (char** e = environ; e && *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ZAB_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
  return names;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// One cluster plus the generator's three sessions on it.
struct Bench {
  std::unique_ptr<zab::harness::RuntimeCluster> cluster;
  std::vector<std::unique_ptr<GenConn>> conns;
  std::string dir;
};

std::vector<GenConn*> raw(const Bench& b) {
  std::vector<GenConn*> v;
  for (const auto& c : b.conns) v.push_back(c.get());
  return v;
}

void teardown(Bench& b) {
  b.conns.clear();
  if (b.cluster) b.cluster->stop();
  b.cluster.reset();
  std::error_code ec;
  std::filesystem::remove_all(b.dir, ec);
  // Hand the torn-down cluster's heap back, so rss_mb of the next trial
  // measures that trial's cluster, not what earlier ones left in the
  // allocator's free lists.
  ::malloc_trim(0);
}

// Construction -> leader -> three sessions -> preload. Returns false (and
// says why on stderr) on any failure.
bool setup(const Options& o, Bench& b, Checker& checker, int index,
           double* seconds) {
  const std::int64_t t0 = now_ns();
  b.dir = o.data_dir + "/setup" + std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(b.dir, ec);
  zab::harness::RuntimeClusterConfig rc;
  rc.n = kReplicas;
  rc.use_tcp = true;
  rc.storage_dir = b.dir;
  rc.fsync = o.spec.durable;
  rc.group_commit = o.spec.durable;
  rc.with_client_service = true;
  b.cluster = std::make_unique<zab::harness::RuntimeCluster>(rc);
  if (auto st = b.cluster->start(); !st.is_ok()) {
    std::fprintf(stderr, "rtbench: cluster start: %s\n", st.to_string().c_str());
    return false;
  }
  if (b.cluster->wait_for_leader(zab::seconds(20)) == zab::kNoNode) {
    std::fprintf(stderr, "rtbench: no leader elected\n");
    return false;
  }
  const std::int64_t deadline = now_ns() + 20'000'000'000;
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    auto c = GenConn::dial(b.cluster->client_port(i));
    if (!c.is_ok()) {
      std::fprintf(stderr, "rtbench: dial %u: %s\n", i, c.status().to_string().c_str());
      return false;
    }
    b.conns.push_back(std::move(c).take());
    if (auto st = b.conns.back()->handshake(kSessionTimeoutMs, deadline); !st.is_ok()) {
      std::fprintf(stderr, "rtbench: handshake %u: %s\n", i, st.to_string().c_str());
      return false;
    }
  }
  Driver d(raw(b), checker, o.spec);
  if (!d.preload(64, now_ns() + 60'000'000'000)) {
    std::fprintf(stderr, "rtbench: preload failed\n");
    return false;
  }
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return true;
}

// Final state check: every replica at the same watermark, and every znode
// on every replica holding its highest acknowledged write.
void check_replicas(Bench& b, Checker& checker, std::uint32_t znodes) {
  // Delivery to the followers may trail the last reply by a commit hop.
  std::uint64_t target = 0;
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    target = std::max(target, b.cluster->view(i).last_delivered.packed());
  }
  const std::int64_t until = now_ns() + 5'000'000'000;
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    while (b.cluster->view(i).last_delivered.packed() < target && now_ns() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    checker.on_replica_watermark(i - 1, b.cluster->view(i).last_delivered.packed());
    b.cluster->with_tree(i, [&](zab::pb::ReplicatedTree& t) {
      for (std::uint32_t k = 0; k < znodes; ++k) {
        auto v = t.get(key_path(k));
        if (v.is_ok()) {
          checker.on_replica_value(i - 1, k, std::span<const std::uint8_t>(v.value().value));
        } else {
          checker.on_replica_value(i - 1, k, std::nullopt);
        }
      }
    });
  }
  checker.finish();
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Totals totals(const Driver& d, std::uint64_t still_outstanding) {
  Totals t;
  for (const PhaseResult& p : d.phases()) {
    if (p.name == "preload") continue;
    t.attempted += p.attempted;
    t.failed += p.failed;
  }
  t.failed += still_outstanding;  // never answered: timed out
  return t;
}

void print_phase(const char* name, const PhaseResult& p) {
  std::string codes;
  for (const auto& [code, n] : p.failed_by_code) {
    codes += " code" + std::to_string(code) + "=" + std::to_string(n);
  }
  std::printf("phase %-7s attempted=%llu ok=%llu failed=%llu (reads=%llu writes=%llu)%s\n",
              name, static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.ok),
              static_cast<unsigned long long>(p.failed),
              static_cast<unsigned long long>(p.reads_ok),
              static_cast<unsigned long long>(p.writes_ok), codes.c_str());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(const std::vector<Metric>& ms, const Totals& t) {
  for (const auto& m : ms) {
    std::printf("%-28s %14s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  std::string out = "{\"correct\":true,\"attempted\":" + std::to_string(t.attempted) +
                    ",\"failed\":" + std::to_string(t.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ",";
    out += "\"" + ms[i].name + "\":{\"value\":" + num(ms[i].value) +
           ",\"unit\":\"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// CPU of every thread but the generator over a phase, per completed op.
double cpu_us_per_op(const ThreadSamples& a, const ThreadSamples& b,
                     pid_t generator, std::uint64_t ops) {
  std::set<pid_t> tids;
  for (const auto& [tid, s] : b) {
    if (tid != generator) tids.insert(tid);
  }
  const GroupCost g = group_cost(a, b, tids);
  return ops ? g.cpu_ns / 1e3 / static_cast<double>(ops) : 0.0;
}

bool fail_checks(const Checker& c, const char* when) {
  if (c.ok()) return false;
  std::fprintf(stderr, "rtbench: correctness check FAILED (%s): %llu violation(s)\n",
               when, static_cast<unsigned long long>(c.violations()));
  for (const auto& e : c.errors()) std::fprintf(stderr, "  %s\n", e.c_str());
  return true;
}

// Ops and durations of one trial's phases: of --seconds, lo gets 30 %, hi
// 40 % and peak 30 %, split evenly over the trials.
struct PhaseSizes {
  std::uint64_t warm = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::int64_t peak_ns = 0;
};

PhaseSizes phase_sizes(const Options& o, int trials) {
  const double s = static_cast<double>(o.seconds) / trials;
  PhaseSizes p;
  p.warm = static_cast<std::uint64_t>(o.spec.hi_rate * kWarmupS);
  p.lo = static_cast<std::uint64_t>(o.spec.lo_rate * 0.3 * s);
  p.hi = static_cast<std::uint64_t>(o.spec.hi_rate * 0.4 * s);
  p.peak_ns = static_cast<std::int64_t>(0.3 * s * 1e9);
  return p;
}

// What one untraced trial measured.
struct Trial {
  double setup_s = 0;
  double lo_p50 = 0, lo_p99 = 0, hi_p50 = 0, hi_p99 = 0;
  double hi_cpu = 0, peak = 0, rss = 0;
  std::size_t lo_n = 0, hi_n = 0;
  std::vector<double> lo_late, hi_late;  // generator send lateness, µs
  // The generator's CPU per op in hi, and its on-CPU share of the wall
  // time of hi and of peak; and the share of peak it was runnable
  // (on-CPU or waiting for one) rather than waiting for replies.
  double gen_hi_cpu = 0, gen_hi_busy = 0, gen_peak_busy = 0, gen_peak_runnable = 0;
  Totals totals;
};

// One untraced trial on a fresh cluster: set-up, warm-up, lo, hi, peak,
// drain and the correctness check. Returns 0 or the exit code.
int run_trial(const Options& o, int index, std::mt19937_64& rng,
              pid_t gen_tid, Trial& t) {
  Bench b;
  Checker checker(kReplicas, o.spec.znodes);
  if (!setup(o, b, checker, index, &t.setup_s)) {
    teardown(b);
    return 1;
  }
  const PhaseSizes n = phase_sizes(o, kTrials);
  Driver d(raw(b), checker, o.spec);
  const TightTimerSlack slack;
  d.run_open("warmup", d.plan_open(o.spec.hi_rate, n.warm, rng), kDrainNs, false);
  const PhaseResult lo = d.run_open("lo", d.plan_open(o.spec.lo_rate, n.lo, rng), kDrainNs, false);
  const ThreadSamples hs0 = sample_threads();
  const std::int64_t hi_t0 = now_ns();
  const PhaseResult hi = d.run_open("hi", d.plan_open(o.spec.hi_rate, n.hi, rng), kDrainNs, false);
  const double hi_wall_ns = static_cast<double>(now_ns() - hi_t0);
  const ThreadSamples hs1 = sample_threads();
  t.rss = vmrss_mib();
  const ThreadSample g0 = sample_thread(gen_tid).value_or(ThreadSample{});
  const std::int64_t peak_t0 = now_ns();
  const PhaseResult peak = d.run_closed("peak", kPeakWindow, n.peak_ns, kPeakSlices, rng);
  const ThreadSample g1 = sample_thread(gen_tid).value_or(ThreadSample{});
  const auto peak_wall_ns = static_cast<double>(now_ns() - peak_t0);
  t.gen_peak_busy = static_cast<double>(g1.cpu_ns - g0.cpu_ns) / peak_wall_ns;
  t.gen_peak_runnable =
      static_cast<double>(g1.cpu_ns + g1.runq_ns - g0.cpu_ns - g0.runq_ns) / peak_wall_ns;
  const std::uint64_t left = d.drain(now_ns() + kDrainNs);
  for (const PhaseResult& p : d.phases()) {
    if (p.failed > 0) print_phase(p.name.c_str(), p);
  }
  check_replicas(b, checker, o.spec.znodes);
  t.totals = totals(d, left);
  teardown(b);
  if (fail_checks(checker, "untraced trial") || d.broken()) {
    if (d.broken()) std::fprintf(stderr, "rtbench: generator connection broke\n");
    return 1;
  }
  t.lo_n = lo.lat_us.size();
  t.hi_n = hi.lat_us.size();
  t.lo_late = lo.late_us;
  t.hi_late = hi.late_us;
  t.lo_p50 = percentile(lo.lat_us, 0.5);
  t.lo_p99 = percentile(lo.lat_us, 0.99);
  t.hi_p50 = percentile(hi.lat_us, 0.5);
  t.hi_p99 = percentile(hi.lat_us, 0.99);
  t.hi_cpu = cpu_us_per_op(hs0, hs1, gen_tid, hi.ok);
  const double gen_hi_ns = group_cost(hs0, hs1, {gen_tid}).cpu_ns;
  t.gen_hi_cpu = hi.ok ? gen_hi_ns / 1e3 / static_cast<double>(hi.ok) : 0.0;
  t.gen_hi_busy = gen_hi_ns / hi_wall_ns;
  t.peak = median(peak.slice_rates);
  std::printf("trial %d: setup %.4f s, lo p50/p99 %.1f/%.1f us (n=%zu), hi p50/p99 %.1f/%.1f us "
              "(n=%zu), hi cpu %.2f us/op, peak %.0f ops/s (generator busy %.2f, runnable %.2f), "
              "checked %llu writes %llu reads %llu znodes\n",
              index, t.setup_s, t.lo_p50, t.lo_p99, t.lo_n, t.hi_p50, t.hi_p99, t.hi_n, t.hi_cpu,
              t.peak, t.gen_peak_busy, t.gen_peak_runnable,
              static_cast<unsigned long long>(checker.writes_checked()),
              static_cast<unsigned long long>(checker.reads_checked()),
              static_cast<unsigned long long>(checker.znodes_checked()));
  return 0;
}

// Prints the generator's send lateness in an open-loop phase; true (and
// says why) when its median exceeds kLateShareLimit of the phase's median
// latency.
bool generator_late(const char* phase, const std::vector<double>& late_us,
                    double lat_p50_us) {
  const double p50 = percentile(late_us, 0.5);
  const double p99 = percentile(late_us, 0.99);
  const double limit = kLateShareLimit * lat_p50_us;
  std::printf("generator %s: late p50/p99 %.1f/%.1f us (limit p50 %.1f us)\n", phase, p50, p99,
              limit);
  if (p50 <= limit) return false;
  std::fprintf(stderr, "rtbench: run INVALID: generator late p50 %.1f us in %s > %.1f us\n",
               p50, phase, limit);
  return true;
}

// Untraced pass: kTrials trials, each metric the median over trials.
int run_untraced(const Options& o, std::mt19937_64& rng, pid_t gen_tid) {
  std::vector<Trial> trials(kTrials);
  for (int r = 0; r < kTrials; ++r) {
    if (const int rc = run_trial(o, r, rng, gen_tid, trials[r]); rc != 0) return rc;
  }
  auto med = [&](double Trial::*f) {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(t.*f);
    return median(std::move(v));
  };
  Totals tot;
  std::vector<double> lo_late, hi_late;
  std::size_t lo_n = 0, hi_n = 0;
  for (const Trial& t : trials) {
    tot.attempted += t.totals.attempted;
    tot.failed += t.totals.failed;
    lo_late.insert(lo_late.end(), t.lo_late.begin(), t.lo_late.end());
    hi_late.insert(hi_late.end(), t.hi_late.begin(), t.hi_late.end());
    lo_n += t.lo_n;
    hi_n += t.hi_n;
  }
  const bool lo_late_bad = generator_late("lo", lo_late, med(&Trial::lo_p50));
  const bool hi_late_bad = generator_late("hi", hi_late, med(&Trial::hi_p50));
  // Judged on the trial median, as peak_ops_s is.
  const double peak_busy = med(&Trial::gen_peak_busy);
  std::printf("generator cpu: hi %.3f us/op, busy %.3f; peak busy %.3f, runnable %.3f "
              "(limit busy %.2f)\n",
              med(&Trial::gen_hi_cpu), med(&Trial::gen_hi_busy), peak_busy,
              med(&Trial::gen_peak_runnable), kPeakBusyLimit);
  if (peak_busy > kPeakBusyLimit) {
    std::fprintf(stderr, "rtbench: run INVALID: generator busy %.3f of the peak phase > %.2f\n",
                 peak_busy, kPeakBusyLimit);
  }
  if (lo_late_bad || hi_late_bad || peak_busy > kPeakBusyLimit) return 3;
  std::printf("samples: lo=%zu hi=%zu over %d trials\n", lo_n, hi_n, kTrials);
  std::printf("error_rate %.6g (failed %llu of %llu attempted)\n",
              tot.attempted ? static_cast<double>(tot.failed) / static_cast<double>(tot.attempted)
                            : 0.0,
              static_cast<unsigned long long>(tot.failed),
              static_cast<unsigned long long>(tot.attempted));
  const double ok_frac =
      tot.attempted
          ? 1.0 - static_cast<double>(tot.failed) / static_cast<double>(tot.attempted)
          : 0.0;
  // The p99 tails are printed but not part of the result: on a small
  // shared VM their run-to-run spread is wider than any usable regression
  // bound (README.md, "End-to-end metrics").
  std::printf("%-28s %14s us (not gated)\n", "lo_p99_us", num(med(&Trial::lo_p99)).c_str());
  std::printf("%-28s %14s us (not gated)\n", "hi_p99_us", num(med(&Trial::hi_p99)).c_str());
  emit({{"setup_s", med(&Trial::setup_s), "s"},
        {"lo_p50_us", med(&Trial::lo_p50), "us"},
        {"hi_p50_us", med(&Trial::hi_p50), "us"},
        {"hi_cpu_us_per_op", med(&Trial::hi_cpu), "us"},
        {"peak_ops_s", med(&Trial::peak), "ops/s"},
        {"ok_frac", ok_frac, "fraction"},
        {"rss_mb", med(&Trial::rss), "MiB"}},
       tot);
  return 0;
}

// Traced pass: one trial; hi untraced, then hi traced on the same cluster.
int run_traced(const Options& o, std::mt19937_64& rng, pid_t gen_tid) {
  Bench b;
  Checker checker(kReplicas, o.spec.znodes);
  double setup_s = 0;
  if (!setup(o, b, checker, 0, &setup_s)) {
    teardown(b);
    return 1;
  }
  // The traced pass runs one trial's worth of hi, twice.
  const PhaseSizes n = phase_sizes(o, 1);
  Driver d(raw(b), checker, o.spec);
  const TightTimerSlack slack;
  d.run_open("warmup", d.plan_open(o.spec.hi_rate, n.warm, rng), kDrainNs, false);
  const ThreadSamples us0 = sample_threads();
  const PhaseResult hi_plain =
      d.run_open("hi", d.plan_open(o.spec.hi_rate, n.hi, rng), kDrainNs, false);
  const ThreadSamples us1 = sample_threads();
  const double plain_p50 = percentile(hi_plain.lat_us, 0.5);
  const double plain_cpu = cpu_us_per_op(us0, us1, gen_tid, hi_plain.ok);

  ThreadMap threads;
  threads.generator = gen_tid;
  TracedPhase tp;
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    pid_t tid = 0;
    b.cluster->with_node(i, [&tid](zab::ZabNode& node) {
      tid = this_tid();
      node.metrics().reset();  // registry deltas over the traced phase
    });
    if (b.cluster->view(i).active_leader) {
      threads.leader_loop = tid;
      tp.leader_index = i - 1;
    } else {
      threads.follower_loops.insert(tid);
    }
  }
  const auto traced_plan = d.plan_open(o.spec.hi_rate, n.hi, rng);
  tp.start = sample_threads();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::uint64_t a0 = allocs_counted();
  set_alloc_counting(true);
  const PhaseResult hi_traced = d.run_open("hi_traced", traced_plan, kDrainNs, true);
  set_alloc_counting(false);
  tp.allocs = allocs_counted() - a0;
  tp.proc_cpu_ns = process_cpu_ns() - cpu0;
  tp.end = sample_threads();
  tp.phase = &hi_traced;
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    tp.nodes.push_back(b.cluster->metrics_snapshot(i));
  }
  const auto timelines = b.cluster->collect_traces().merge();
  const auto joined = join_spans(d.spans(), timelines,
                                 static_cast<std::uint32_t>(tp.leader_index + 1));

  const std::uint64_t left = d.drain(now_ns() + kDrainNs);
  print_phase("hi", hi_plain);
  print_phase("hi_traced", hi_traced);
  check_replicas(b, checker, o.spec.znodes);
  // Client-IO threads are the ones that vanish when a replica's client
  // service stops (after the last sample, so their counts are kept).
  for (std::uint32_t i = 1; i <= kReplicas; ++i) {
    const std::set<pid_t> before = list_tids();
    b.cluster->stop_client_service(i);
    for (int tries = 0; tries < 200; ++tries) {
      const std::set<pid_t> after = list_tids();
      for (const pid_t p : before) {
        if (!after.count(p)) threads.client_io.insert(p);
      }
      if (after.size() < before.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (const auto& [tid, s] : tp.start) threads.all.insert(tid);
  for (const auto& [tid, s] : tp.end) threads.all.insert(tid);
  const Totals t = totals(d, left);
  teardown(b);
  if (fail_checks(checker, "traced pass") || d.broken()) {
    if (d.broken()) std::fprintf(stderr, "rtbench: generator connection broke\n");
    return 1;
  }
  const double traced_p50 = percentile(hi_traced.lat_us, 0.5);
  const bool plain_late_bad = generator_late("hi", hi_plain.late_us, plain_p50);
  const bool traced_late_bad = generator_late("hi_traced", hi_traced.late_us, traced_p50);
  if (plain_late_bad || traced_late_bad) return 3;
  if (!o.spans_out.empty()) {
    if (!write_spans_jsonl(o.spans_out, joined)) {
      std::fprintf(stderr, "rtbench: cannot write %s\n", o.spans_out.c_str());
      return 1;
    }
    std::printf("spans: %zu of %zu writes joined to the merged trace -> %s\n", joined.size(),
                d.spans().size(), o.spans_out.c_str());
  }
  std::printf("threads: generator=%d leader_loop=%d follower_loops=%zu client_io=%zu all=%zu\n",
              gen_tid, threads.leader_loop, threads.follower_loops.size(),
              threads.client_io.size(), threads.all.size());
  auto lm = layer_metrics(tp, threads, joined);
  const double traced_cpu = lm["proc.cpu_us_per_op"] - lm["gen.cpu_us_per_op"];
  lm["trace_overhead_pct"] = plain_cpu > 0 ? 100.0 * (traced_cpu - plain_cpu) / plain_cpu : 0.0;
  lm["trace_overhead_p50_pct"] =
      plain_p50 > 0 ? 100.0 * (traced_p50 - plain_p50) / plain_p50 : 0.0;
  std::printf("trace overhead: hi_cpu_us_per_op %.3f -> %.3f, hi_p50_us %.1f -> %.1f\n",
              plain_cpu, traced_cpu, plain_p50, traced_p50);
  std::vector<Metric> out;
  for (const MetricDef& def : layer_metric_defs()) {
    out.push_back({def.name, lm[def.name], def.unit});
  }
  emit(out, t);
  return 0;
}

int run(const Options& o) {
  const pid_t gen_tid = this_tid();
  exclude_this_thread_from_alloc_count();
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ull +
                      std::hash<std::string>{}(o.spec.name));
  return o.trace ? run_traced(o, rng, gen_tid) : run_untraced(o, rng, gen_tid);
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const rtbench::Options o = rtbench::parse(argc, argv);
  const auto cleared = rtbench::clear_zab_env();
  std::string names;
  for (const auto& n : cleared) names += (names.empty() ? "" : ",") + n;
  const char* san = zab::build_info::sanitizer();
  std::error_code ec;
  std::filesystem::create_directories(o.data_dir, ec);
  const std::string fs = rtbench::fs_type(o.data_dir);
  std::printf("rtbench workload=%s seed=%llu seconds=%d trace=%d\n", o.spec.name.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("pinned: cleared ZAB_* = [%s]; build sha=%s compiler=\"%s\" sanitizer=%s; "
              "nproc=%u; log fs=%s\n",
              names.c_str(), zab::build_info::git_sha(), zab::build_info::compiler(),
              san[0] ? san : "none", std::thread::hardware_concurrency(), fs.c_str());
  if (fs == "tmpfs") {
    std::fprintf(stderr, "rtbench: WARNING: %s is on tmpfs, where an fsync costs nothing; "
                         "write_durable then measures no log force\n",
                 o.data_dir.c_str());
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
  if (san[0] != '\0' || kSanitized) {
    std::fprintf(stderr, "rtbench: refusing to time a sanitizer build (%s)\n",
                 san[0] ? san : "-fsanitize");
    return 2;
  }
  return rtbench::run(o);
}
