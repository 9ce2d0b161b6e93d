// Micro ablation — index structures (real wall-clock time via
// google-benchmark): the B-link tree against std::map (single-threaded
// baseline) and the LSM-backed index, for inserts, point lookups,
// versioned lookups and range scans. Supports the §3.5 sizing discussion.

#include <benchmark/benchmark.h>

#include "bench/common.h"

#include <map>

#include "src/index/blink_tree.h"
#include "src/index/lsm_index.h"
#include "src/util/io.h"
#include "src/util/random.h"

namespace {

using namespace logbase;

log::LogPtr Ptr(uint64_t i) {
  return log::LogPtr{0, 1, i * 100, 100};
}

std::string Key(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_BlinkInsert(benchmark::State& state) {
  index::BlinkTree tree;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(Key(i), 1, Ptr(i)));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlinkInsert);

void BM_BlinkGetLatest(benchmark::State& state) {
  index::BlinkTree tree;
  const uint64_t n = state.range(0);
  for (uint64_t i = 0; i < n; i++) (void)tree.Insert(Key(i), 1, Ptr(i));
  Random rnd(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.GetAsOf(Key(rnd.Uniform(n)), index::kLatest));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlinkGetLatest)->Arg(10000)->Arg(100000);

void BM_BlinkGetAsOf(benchmark::State& state) {
  index::BlinkTree tree;
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; i++) {
    for (uint64_t v = 1; v <= 4; v++) (void)tree.Insert(Key(i), v * 10, Ptr(i));
  }
  Random rnd(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.GetAsOf(Key(rnd.Uniform(n)), rnd.Uniform(50)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlinkGetAsOf);

void BM_BlinkScan100(benchmark::State& state) {
  index::BlinkTree tree;
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) (void)tree.Insert(Key(i), 1, Ptr(i));
  Random rnd(3);
  for (auto _ : state) {
    uint64_t start = rnd.Uniform(n - 200);
    benchmark::DoNotOptimize(
        tree.ScanRange(Key(start), Key(start + 100), ~0ull));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BlinkScan100);

void BM_StdMapInsert(benchmark::State& state) {
  std::map<std::pair<std::string, uint64_t>, log::LogPtr> map;
  uint64_t i = 0;
  for (auto _ : state) {
    map.emplace(std::make_pair(Key(i), 1ull), Ptr(i));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapInsert);

void BM_StdMapGet(benchmark::State& state) {
  std::map<std::pair<std::string, uint64_t>, log::LogPtr> map;
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) {
    map.emplace(std::make_pair(Key(i), 1ull), Ptr(i));
  }
  Random rnd(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.lower_bound(std::make_pair(Key(rnd.Uniform(n)), 0ull)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapGet);

void BM_LsmIndexInsert(benchmark::State& state) {
  MemFileSystem fs;
  lsm::LsmOptions options;
  auto idx = index::LsmIndex::Open(options, &fs, "/idx");
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*idx)->Insert(Key(i), 1, Ptr(i)));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmIndexInsert);

void BM_LsmIndexGet(benchmark::State& state) {
  MemFileSystem fs;
  lsm::LsmOptions options;
  auto idx = index::LsmIndex::Open(options, &fs, "/idx");
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; i++) (void)(*idx)->Insert(Key(i), 1, Ptr(i));
  Random rnd(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*idx)->GetAsOf(Key(rnd.Uniform(n)), index::kLatest));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmIndexGet);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  logbase::bench::PrintComponentBreakdown();
  ::benchmark::Shutdown();
  return 0;
}
