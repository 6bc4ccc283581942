#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <vector>

#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"

// ASan and TSan replace glibc's allocator with their own, which ignores
// the heap policy simmpi::run sets.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MIMIR_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MIMIR_SANITIZER_HEAP 1
#endif
#endif

namespace {

using simmpi::Context;

TEST(Runtime, RanksSeeCorrectTopology) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 4;
  pfs::FileSystem fs(machine, 8);
  const auto stats = simmpi::run(8, machine, fs, [](Context& ctx) {
    EXPECT_EQ(ctx.size(), 8);
    EXPECT_EQ(ctx.node(), ctx.rank() / 4);
  });
  EXPECT_EQ(stats.ranks, 8);
  EXPECT_EQ(stats.nodes, 2);
  EXPECT_EQ(stats.node_peaks.size(), 2u);
}

TEST(Runtime, ExceptionAbortsWholeJobAndRethrows) {
  // Rank 1 throws while others sit in a barrier; nobody deadlocks and the
  // original exception type surfaces.
  EXPECT_THROW(simmpi::run_test(4,
                                [](Context& ctx) {
                                  if (ctx.rank() == 1) {
                                    throw mutil::OutOfMemoryError(
                                        "synthetic", 1, 1);
                                  }
                                  // Will be woken by the abort.
                                  ctx.comm.barrier();
                                  ctx.comm.barrier();
                                }),
               mutil::OutOfMemoryError);
}

TEST(Runtime, NodeBudgetEnforcedPerNode) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 2;
  machine.node_memory = 1000;
  pfs::FileSystem fs(machine, 4);
  // Each rank allocates 600 bytes; two ranks share a 1000-byte node, so
  // every node blows its budget.
  EXPECT_THROW(
      simmpi::run(4, machine, fs,
                  [](Context& ctx) {
                    ctx.tracker.allocate(600);
                    ctx.comm.barrier();
                    ctx.tracker.allocate(600);
                    ctx.comm.barrier();
                    ctx.tracker.release(1200);
                  }),
      mutil::OutOfMemoryError);
}

TEST(Runtime, StatsAggregatePeaksAndTime) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 2;
  pfs::FileSystem fs(machine, 4);
  const auto stats = simmpi::run(4, machine, fs, [](Context& ctx) {
    ctx.tracker.allocate(100u * (static_cast<unsigned>(ctx.rank()) + 1));
    ctx.clock().advance(ctx.rank() == 3 ? 9.0 : 1.0);
    ctx.comm.barrier();
    ctx.tracker.release(100u * (static_cast<unsigned>(ctx.rank()) + 1));
  });
  // Node 0 holds ranks {0,1}: 100+200; node 1 holds {2,3}: 300+400.
  EXPECT_EQ(stats.node_peaks[0], 300u);
  EXPECT_EQ(stats.node_peaks[1], 700u);
  EXPECT_EQ(stats.node_peak, 700u);
  EXPECT_GE(stats.sim_time, 9.0);
}

TEST(Runtime, IoStatsAreDeltaPerJob) {
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 1);
  simtime::Clock setup_clock;
  fs.write_file("pre", "0123456789", setup_clock);

  const auto stats = simmpi::run(1, machine, fs, [](Context& ctx) {
    (void)ctx.fs.read_file("pre", ctx.clock());
  });
  EXPECT_EQ(stats.io.bytes_read, 10u);
  EXPECT_EQ(stats.io.bytes_written, 0u)
      << "setup writes must not count against the job";
}

TEST(Runtime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(simmpi::run_test(0, [](Context&) {}), mutil::ConfigError);
}

TEST(Runtime, ManyRanksComplete) {
  // Smoke test that oversubscription works well past core count.
  std::atomic<int> count{0};
  simmpi::run_test(64, [&count](Context& ctx) {
    ctx.comm.barrier();
    count.fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(ctx.comm.allreduce_u64(1, simmpi::Op::kSum), 64u);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(Runtime, RepeatedJobFaultsNoPagesAgain) {
#if defined(MIMIR_SANITIZER_HEAP)
  GTEST_SKIP() << "the sanitizer's allocator ignores glibc's heap policy";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "the heap policy is glibc's";
#else
  // Each rank fills 16 MiB of 64 KiB pages, frees them and fills them
  // again. Once the first job has faulted that memory in, the second
  // job's rank threads must find it still mapped.
  static constexpr std::size_t kBuffers = 256;
  static constexpr std::size_t kBufferBytes = std::size_t{64} << 10;
  static constexpr int kRanks = 2;
  const auto job = [](Context& ctx) {
    std::vector<memtrack::TrackedBuffer> buffers;
    buffers.reserve(kBuffers);
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < kBuffers; ++i) {
        buffers.emplace_back(ctx.tracker, kBufferBytes);
      }
      buffers.clear();
    }
  };
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  const long pages = static_cast<long>(kRanks * kBuffers * kBufferBytes) /
                     sysconf(_SC_PAGESIZE);

  simmpi::run_test(kRanks, job);
  const long before = minor_faults();
  simmpi::run_test(kRanks, job);
  EXPECT_LT(minor_faults() - before, pages / 10)
      << "the second job faulted its " << pages << " pages in again";
#endif
}

}  // namespace
