// Micro-benchmarks (google-benchmark) for the hot building blocks:
// CRC32C, message codec, log append paths, data-tree ops, histogram.
#include <benchmark/benchmark.h>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "pb/data_tree.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "zab/messages.h"

namespace zab {
namespace {

Bytes make_payload(std::size_t size) {
  Bytes b(size);
  Rng rng(99);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

void BM_Crc32c(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(65536);

// A live proposal: one txn in the PROPOSEBATCH frame every broadcast uses.
void BM_EncodePropose(benchmark::State& state) {
  const ProposeBatchMsg m{
      3, {Txn{Zxid{3, 42},
              make_payload(static_cast<std::size_t>(state.range(0)))}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_message(Message{m}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodePropose)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DecodePropose(benchmark::State& state) {
  const Bytes wire = encode_message(Message{ProposeBatchMsg{
      3, {Txn{Zxid{3, 42},
              make_payload(static_cast<std::size_t>(state.range(0)))}}}});
  for (auto _ : state) {
    auto m = decode_message(wire);
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DecodePropose)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MemLogAppend(benchmark::State& state) {
  storage::MemStorage s;
  const Bytes payload = make_payload(1024);
  std::uint32_t c = 0;
  for (auto _ : state) {
    s.append(Txn{Zxid{1, ++c}, payload}, nullptr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemLogAppend);

void BM_FileLogAppend(benchmark::State& state) {
  const std::string dir = "/tmp/zab_bench_log";
  (void)storage::remove_dir_recursive(dir);
  storage::FileStorageOptions opts;
  opts.dir = dir;
  opts.fsync = state.range(0) != 0;
  auto fs = std::move(storage::FileStorage::open(opts)).take();
  const Bytes payload = make_payload(1024);
  std::uint32_t c = 0;
  for (auto _ : state) {
    fs->append(Txn{Zxid{1, ++c}, payload}, nullptr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  fs.reset();
  (void)storage::remove_dir_recursive(dir);
}
BENCHMARK(BM_FileLogAppend)->Arg(0)->ArgName("fsync");

void BM_TreeCreateApply(benchmark::State& state) {
  pb::DataTree tree;
  const Bytes data = make_payload(256);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)tree.apply_create("/n" + std::to_string(i++), data, Zxid{1, 1});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeCreateApply);

void BM_TreeSetDataApply(benchmark::State& state) {
  pb::DataTree tree;
  (void)tree.apply_create("/hot", make_payload(256), Zxid{1, 1});
  const Bytes data = make_payload(256);
  std::uint32_t v = 0;
  for (auto _ : state) {
    ++v;
    (void)tree.apply_set_data("/hot", data, v, Zxid{1, v});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeSetDataApply);

void BM_TreeSnapshotSerialize(benchmark::State& state) {
  pb::DataTree tree;
  const Bytes data = make_payload(128);
  for (int i = 0; i < state.range(0); ++i) {
    (void)tree.apply_create("/n" + std::to_string(i), data, Zxid{1, 1});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.serialize());
  }
}
BENCHMARK(BM_TreeSnapshotSerialize)->Arg(100)->Arg(10000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.record(rng.below(1'000'000'000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_PrometheusExposition(benchmark::State& state) {
  // The /metrics scrape path: snapshot + render a registry shaped like a
  // busy node's (counters, gauges, and quantile-summarized histograms).
  MetricsRegistry reg;
  Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    reg.counter("zab.bench.counter" + std::to_string(i)).add(i);
    reg.gauge("zab.bench.gauge" + std::to_string(i)).set(i);
    Histogram& h = reg.histogram("zab.bench.hist" + std::to_string(i));
    for (int j = 0; j < 1000; ++j) h.record(rng.below(1'000'000'000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.to_prometheus());
  }
}
BENCHMARK(BM_PrometheusExposition)->Arg(8)->Arg(64);

}  // namespace
}  // namespace zab

// Hand-rolled BENCHMARK_MAIN so `--json <path>` works uniformly across all
// bench binaries; it maps onto google-benchmark's own JSON reporter.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[++i];
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
