// Micro-benchmarks for the simmpi substrate: collective rendezvous
// costs (wall clock, not simulated time) across rank counts.
#include <benchmark/benchmark.h>

#include "simmpi/runtime.hpp"

namespace {

void BM_JobSpawn(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::run_test(ranks, [](simmpi::Context&) {});
  }
}
BENCHMARK(BM_JobSpawn)->Arg(2)->Arg(8)->Arg(32);

void BM_Barrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int iters = 200;
  for (auto _ : state) {
    simmpi::run_test(ranks, [&](simmpi::Context& ctx) {
      for (int i = 0; i < iters; ++i) ctx.comm.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          iters);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(8)->Arg(32);

void BM_Alltoallv(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::uint64_t block = 4096;
  for (auto _ : state) {
    simmpi::run_test(ranks, [&](simmpi::Context& ctx) {
      const auto p = static_cast<std::uint64_t>(ctx.size());
      std::vector<std::byte> send(block * p), recv(block * p);
      std::vector<std::uint64_t> counts(p, block), displs(p);
      for (std::uint64_t i = 0; i < p; ++i) displs[i] = i * block;
      for (int round = 0; round < 20; ++round) {
        ctx.comm.alltoallv(send, counts, displs, recv, counts, displs);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20 * block * state.range(0) * state.range(0));
}
BENCHMARK(BM_Alltoallv)->Arg(2)->Arg(8)->Arg(32);

void BM_Allreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::run_test(ranks, [&](simmpi::Context& ctx) {
      std::uint64_t acc = 0;
      for (int i = 0; i < 200; ++i) {
        acc ^= ctx.comm.allreduce_u64(static_cast<std::uint64_t>(i),
                                      simmpi::Op::kSum);
      }
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          200);
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
