// Supporting micro-benchmarks: the parallel primitives the PRAM algorithm
// is assembled from (prefix sum, segment tree build/query) — the building
// blocks named in the paper's contribution 1.

#include <benchmark/benchmark.h>

#include <random>

#include "parallel/scan.hpp"
#include "segtree/segment_tree.hpp"

namespace {

using psclip::par::ThreadPool;

ThreadPool& pool() {
  static ThreadPool p;
  return p;
}

void BM_InclusiveScan(benchmark::State& state) {
  std::vector<std::int64_t> in(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    psclip::par::inclusive_scan(pool(), in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InclusiveScan)->Range(1 << 12, 1 << 20);

void BM_SegmentTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(9);
  std::vector<double> breaks;
  for (std::size_t i = 0; i <= n; ++i) breaks.push_back(static_cast<double>(i));
  std::vector<std::pair<double, double>> ranges(n);
  for (auto& r : ranges) {
    double a = static_cast<double>(rng() % n);
    double b = static_cast<double>(rng() % n);
    if (a > b) std::swap(a, b);
    r = {a, b + 1.0};
  }
  for (auto _ : state) {
    auto t = psclip::segtree::SegmentTree::build(pool(), breaks, ranges);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_SegmentTreeBuild)->Range(1 << 8, 1 << 14);

void BM_SegmentTreeStabAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(13);
  std::vector<double> breaks;
  for (std::size_t i = 0; i <= n; ++i) breaks.push_back(static_cast<double>(i));
  std::vector<std::pair<double, double>> ranges(n);
  for (auto& r : ranges) {
    double a = static_cast<double>(rng() % n);
    double b = static_cast<double>(rng() % n);
    if (a > b) std::swap(a, b);
    r = {a, b + 1.0};
  }
  const auto t = psclip::segtree::SegmentTree::build(pool(), breaks, ranges);
  for (auto _ : state) {
    auto all = t.stab_all(pool());
    benchmark::DoNotOptimize(all.ids.data());
    state.counters["k_prime"] = static_cast<double>(all.ids.size());
  }
}
BENCHMARK(BM_SegmentTreeStabAll)->Range(1 << 8, 1 << 13);

}  // namespace

BENCHMARK_MAIN();
