// Restart-from-scratch retry for the MR-MPI baseline.
#include "mrmpi/retry.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "inject/fault.hpp"
#include "mrmpi/mrmpi.hpp"
#include "mutil/error.hpp"

namespace {

using inject::FaultPlan;
using mrmpi::RetryOutcome;
using mrmpi::RetryPolicy;

constexpr int kRanks = 3;

simtime::MachineProfile profile_with_io() {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  return machine;
}

/// Per-rank output, overwritten each attempt (a restart must not
/// double-count the attempt it replaced).
struct Sink {
  std::mutex mutex;
  std::map<int, std::map<std::string, std::uint64_t>> by_rank;

  std::map<std::string, std::uint64_t> merged() const {
    std::map<std::string, std::uint64_t> all;
    for (const auto& [rank, kvs] : by_rank) {
      for (const auto& [key, value] : kvs) all[key] += value;
    }
    return all;
  }
};

mrmpi::RetryBody wordcount(Sink& sink) {
  return [&sink](simmpi::Context& ctx) {
    mrmpi::MapReduce mr(ctx);
    const int rank = ctx.rank();
    mr.map_custom([rank](mimir::Emitter& out) {
      for (int i = 0; i < 500; ++i) {
        out.emit(std::string("w").append(std::to_string((i * 13 + rank) % 59)),
                 std::uint64_t{1});
      }
    });
    mr.aggregate();
    mr.convert();
    mr.reduce([](std::string_view key, mimir::ValueReader& values,
                 mimir::Emitter& out) {
      std::uint64_t total = 0;
      std::string_view v;
      while (values.next(v)) total += mimir::as_u64(v);
      out.emit(key, total);
    });
    std::map<std::string, std::uint64_t> mine;
    mr.scan_kv([&](const mimir::KVView& kv) {
      mine[std::string(kv.key)] += mimir::as_u64(kv.value);
    });
    const std::scoped_lock lock(sink.mutex);
    sink.by_rank[rank] = std::move(mine);
  };
}

TEST(MrMpiRetry, CompletesWithoutFaultsInOneAttempt) {
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, kRanks);
  Sink sink;
  const RetryOutcome out =
      mrmpi::run_with_retry(kRanks, machine, fs, wordcount(sink));
  EXPECT_EQ(out.attempts, 1);
  EXPECT_DOUBLE_EQ(out.total_backoff, 0.0);
  ASSERT_EQ(out.history.size(), 1u);
  EXPECT_TRUE(out.history[0].ok);
  EXPECT_EQ(sink.merged().size(), 59u);
}

TEST(MrMpiRetry, RankCrashRestartsFromScratchWithSameOutput) {
  const auto machine = profile_with_io();
  const FaultPlan plan = FaultPlan::parse("rank_crash:1@reduce");

  Sink expected;
  {
    pfs::FileSystem fs(machine, kRanks);
    (void)mrmpi::run_with_retry(kRanks, machine, fs, wordcount(expected));
  }

  pfs::FileSystem fs(machine, kRanks);
  Sink sink;
  const RetryOutcome out = mrmpi::run_with_retry(
      kRanks, machine, fs, wordcount(sink), {}, &plan);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].ok);
  EXPECT_EQ(out.history[0].failed_rank, 1);
  EXPECT_DOUBLE_EQ(out.history[0].backoff, 0.5);
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_DOUBLE_EQ(out.total_backoff, 0.5);
  EXPECT_GE(out.stats.sim_time, 0.5) << "backoff rides the simulated clock";
  EXPECT_EQ(sink.merged(), expected.merged());
}

TEST(MrMpiRetry, NodeCrashKillsTheGroupAndRestarts) {
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;
  const FaultPlan plan = FaultPlan::parse("node_crash:0@aggregate");

  pfs::FileSystem fs(machine, 4);
  Sink sink;
  const RetryOutcome out =
      mrmpi::run_with_retry(4, machine, fs, wordcount(sink), {}, &plan);
  EXPECT_EQ(out.attempts, 2);
  const int failed = out.history[0].failed_rank;
  EXPECT_TRUE(failed == 0 || failed == 1)
      << "node 0 hosts ranks 0 and 1, got " << failed;
  EXPECT_EQ(sink.merged().size(), 59u);
}

TEST(MrMpiRetry, RetriesExhaustedRethrows) {
  const auto machine = profile_with_io();
  const FaultPlan plan =
      FaultPlan::parse("rank_crash:0@map#1,rank_crash:0@map#2");
  RetryPolicy policy;
  policy.max_attempts = 2;

  pfs::FileSystem fs(machine, kRanks);
  Sink sink;
  EXPECT_THROW(mrmpi::run_with_retry(kRanks, machine, fs, wordcount(sink),
                                     policy, &plan),
               mutil::RankFailedError);
}

TEST(MrMpiRetry, InvalidPolicyIsRejectedBeforeTheFirstAttempt) {
  const auto machine = profile_with_io();
  const FaultPlan plan = FaultPlan::parse("rank_crash:0@reduce");
  std::vector<RetryPolicy> policies(4);
  policies[0].max_attempts = 0;
  policies[1].backoff_base = -1.0;
  policies[2].backoff_base = std::numeric_limits<double>::quiet_NaN();
  policies[3].backoff_factor = 0.5;
  for (const RetryPolicy& policy : policies) {
    pfs::FileSystem fs(machine, kRanks);
    Sink sink;
    EXPECT_THROW((void)mrmpi::run_with_retry(kRanks, machine, fs,
                                             wordcount(sink), policy, &plan),
                 mutil::UsageError);
    EXPECT_TRUE(sink.by_rank.empty()) << "no attempt may run";
  }
}

TEST(MrMpiRetry, UsageErrorsAreNeverRetried) {
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, 1);
  EXPECT_THROW(
      mrmpi::run_with_retry(1, machine, fs,
                            [](simmpi::Context& ctx) {
                              mrmpi::MapReduce mr(ctx);
                              mr.aggregate();  // no KV data: caller bug
                            }),
      mutil::UsageError);
}

}  // namespace
