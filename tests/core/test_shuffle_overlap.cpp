// Overlapped (double-buffered, non-blocking) shuffle: bit-identity of
// results against the blocking mode, the charged == usable buffer-size
// regression (prime comm-buffer sizes), the zero-emit-rank finalize
// drain, and edge geometries (single-rank communicator, a KV of exactly
// one partition capacity, comm buffers smaller than a cache line) —
// each under both mimir.overlap settings and under the race detector.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/report.hpp"
#include "mimir/containers.hpp"
#include "mimir/job.hpp"
#include "mimir/shuffle.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"

namespace {

using mimir::KVContainer;
using mimir::KVHint;
using mimir::KVView;
using mimir::Shuffle;
using simmpi::Context;

check::CheckConfig race_config() {
  check::CheckConfig cfg;
  cfg.race = true;
  return cfg;
}

/// Runs `body` bare, then once per overlap setting under the race
/// detector, asserting the detector stays silent each time.
template <typename Fn>
void run_all_modes(int nranks, const Fn& body) {
  for (const bool overlap : {false, true}) {
    simmpi::run_test(nranks,
                     [&](Context& ctx) { body(ctx, overlap); });
    check::Report report;
    check::JobChecker checker(report, race_config());
    simmpi::run_test(
        nranks, [&](Context& ctx) { body(ctx, overlap); }, nullptr,
        &checker);
    EXPECT_TRUE(report.empty())
        << "overlap=" << overlap << "\n"
        << report.text();
  }
}

TEST(ShuffleOverlap, ConfigKnobReachesTheShuffle) {
  mutil::Config cfg;
  cfg.set("mimir.overlap", "1");
  EXPECT_TRUE(mimir::JobConfig::from(cfg).overlap);
  cfg.set("mimir.overlap", "0");
  EXPECT_FALSE(mimir::JobConfig::from(cfg).overlap);
  EXPECT_FALSE(mimir::JobConfig{}.overlap);
}

TEST(ShuffleOverlap, BitIdenticalIntermediateAcrossModes) {
  auto run_once = [](bool overlap) {
    auto per_rank =
        std::make_shared<std::vector<std::vector<std::string>>>(4);
    simmpi::run_test(4, [&](Context& ctx) {
      KVContainer dest(ctx.tracker, 4096);
      Shuffle shuffle(ctx, 128, {}, dest, {}, overlap);
      for (int i = 0; i < 500; ++i) {
        shuffle.emit("key" + std::to_string((ctx.rank() * 500 + i) % 61),
                     std::string("v").append(std::to_string(i)));
      }
      shuffle.finalize();
      auto& mine = (*per_rank)[static_cast<std::size_t>(ctx.rank())];
      dest.scan([&](const KVView& kv) {
        mine.push_back(std::string(kv.key) + "=" + std::string(kv.value));
      });
    });
    return *per_rank;
  };
  const auto blocking = run_once(false);
  const auto overlapped = run_once(true);
  EXPECT_EQ(blocking, overlapped);
  std::size_t total = 0;
  for (const auto& rank : blocking) total += rank.size();
  EXPECT_EQ(total, 2000u);
}

// Regression: part_cap_ = comm_buffer / nranks used to leave
// comm_buffer % nranks bytes charged but unusable (past the last
// partition). The buffers must charge exactly what the partitions can
// hold — visible at a prime comm-buffer size.
TEST(ShuffleOverlap, PrimeCommBufferChargesExactlyUsableBytes) {
  constexpr std::uint64_t kPrime = 1031;
  constexpr int kRanks = 4;
  for (const bool overlap : {false, true}) {
    simmpi::run_test(kRanks, [&](Context& ctx) {
      const std::uint64_t base = ctx.tracker.current();
      KVContainer dest(ctx.tracker, 4096);
      const std::uint64_t with_dest = ctx.tracker.current();
      Shuffle shuffle(ctx, kPrime, {}, dest, {}, overlap);
      const std::uint64_t part_cap = kPrime / kRanks;
      EXPECT_EQ(shuffle.partition_capacity(), part_cap);
      const std::uint64_t usable = part_cap * kRanks;
      const std::uint64_t buffers = overlap ? 3 * usable : 2 * usable;
      EXPECT_EQ(ctx.tracker.current() - with_dest, buffers)
          << "overlap=" << overlap;
      const auto it = ctx.tracker.tags().find("shuffle");
      ASSERT_NE(it, ctx.tracker.tags().end());
      EXPECT_EQ(it->second.current, buffers);
      shuffle.finalize();
      (void)base;
    });
  }
}

// One rank emits nothing and calls finalize immediately; a peer emits
// enough for several mid-map rounds. The zero-emit rank must keep
// participating (neither hanging nor leaving early) until the peer's
// flush round votes done, in both modes.
TEST(ShuffleOverlap, ZeroEmitRankDrainsPeersRounds) {
  run_all_modes(3, [](Context& ctx, bool overlap) {
    KVContainer dest(ctx.tracker, 8192);
    // 96-byte buffer -> 32-byte partitions; rank 1 routes ~3 KB through
    // them, forcing well over three rounds.
    Shuffle shuffle(ctx, 96, {}, dest, {}, overlap);
    if (ctx.rank() == 1) {
      for (int i = 0; i < 200; ++i) {
        shuffle.emit(std::string("k").append(std::to_string(i)), "value");
      }
    }
    shuffle.finalize();
    EXPECT_GT(shuffle.rounds(), 3u);
    const auto total =
        ctx.comm.allreduce_u64(dest.num_kvs(), simmpi::Op::kSum);
    EXPECT_EQ(total, 200u);
    // Every rank participates in every round: round counts agree.
    const auto max_rounds =
        ctx.comm.allreduce_u64(shuffle.rounds(), simmpi::Op::kMax);
    EXPECT_EQ(max_rounds, shuffle.rounds());
  });
}

TEST(ShuffleOverlap, SingleRankCommunicator) {
  run_all_modes(1, [](Context& ctx, bool overlap) {
    KVContainer dest(ctx.tracker, 4096);
    Shuffle shuffle(ctx, 64, {}, dest, {}, overlap);
    for (int i = 0; i < 50; ++i) {
      shuffle.emit("key" + std::to_string(i), "v");
    }
    shuffle.finalize();
    EXPECT_EQ(dest.num_kvs(), 50u);
  });
}

TEST(ShuffleOverlap, KvOfExactlyPartitionCapacity) {
  // Fixed 8+8 hint: every KV encodes to exactly 16 bytes = part_cap_
  // (comm_buffer 32, 2 ranks). The overflow check is strict-greater, so
  // each KV fills its partition exactly and ships one KV per round.
  run_all_modes(2, [](Context& ctx, bool overlap) {
    const KVHint hint{8, 8};
    KVContainer dest(ctx.tracker, 4096, hint);
    Shuffle shuffle(ctx, 32, hint, dest, {}, overlap);
    EXPECT_EQ(shuffle.partition_capacity(), 16u);
    for (int i = 0; i < 20; ++i) {
      const std::string key = "key" + std::to_string(1000 + i);  // 7 ch
      shuffle.emit(key + "x", "8bytes!!");
    }
    shuffle.finalize();
    const auto total =
        ctx.comm.allreduce_u64(dest.num_kvs(), simmpi::Op::kSum);
    EXPECT_EQ(total, 40u);
  });
}

TEST(ShuffleOverlap, CommBufferSmallerThanACacheLine) {
  // 8-byte comm buffer, 2 ranks -> 4-byte partitions; fixed 1+1 hint
  // keeps each KV at 2 encoded bytes.
  run_all_modes(2, [](Context& ctx, bool overlap) {
    const KVHint hint{1, 1};
    KVContainer dest(ctx.tracker, 4096, hint);
    Shuffle shuffle(ctx, 8, hint, dest, {}, overlap);
    EXPECT_EQ(shuffle.partition_capacity(), 4u);
    for (int i = 0; i < 26; ++i) {
      const char c = static_cast<char>('a' + i);
      shuffle.emit({&c, 1}, {&c, 1});
    }
    shuffle.finalize();
    const auto total =
        ctx.comm.allreduce_u64(dest.num_kvs(), simmpi::Op::kSum);
    EXPECT_EQ(total, 52u);
  });
}

TEST(ShuffleOverlap, OversizedKvStillThrows) {
  for (const bool overlap : {false, true}) {
    EXPECT_THROW(
        simmpi::run_test(2,
                         [&](Context& ctx) {
                           KVContainer dest(ctx.tracker, 4096);
                           Shuffle shuffle(ctx, 16, {}, dest, {}, overlap);
                           shuffle.emit("a-key-larger-than-8-bytes",
                                        "and-a-long-value");
                           shuffle.finalize();
                         }),
        mutil::UsageError);
  }
}

}  // namespace
