#include <gtest/gtest.h>

#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"

namespace {

using simmpi::Context;
using simmpi::Op;

TEST(CommSplit, ParityGroupsGetOwnRanks) {
  simmpi::run_test(6, [](Context& ctx) {
    auto sub = ctx.comm.split(ctx.rank() % 2, ctx.rank());
    EXPECT_EQ(sub->size(), 3);
    EXPECT_EQ(sub->rank(), ctx.rank() / 2);
  });
}

TEST(CommSplit, KeyControlsOrdering) {
  simmpi::run_test(4, [](Context& ctx) {
    // Reverse the ordering within one group of everyone.
    auto sub = ctx.comm.split(0, ctx.size() - ctx.rank());
    EXPECT_EQ(sub->size(), ctx.size());
    EXPECT_EQ(sub->rank(), ctx.size() - 1 - ctx.rank());
  });
}

TEST(CommSplit, CollectivesAreGroupLocal) {
  simmpi::run_test(6, [](Context& ctx) {
    const int color = ctx.rank() < 2 ? 0 : 1;  // groups of 2 and 4
    auto sub = ctx.comm.split(color, ctx.rank());
    // Sum of new ranks within the group.
    const auto sum =
        sub->allreduce_u64(static_cast<std::uint64_t>(sub->rank()), Op::kSum);
    if (color == 0) {
      EXPECT_EQ(sum, 0u + 1u);
    } else {
      EXPECT_EQ(sum, 0u + 1u + 2u + 3u);
    }
    // Gather within the group only.
    const auto all =
        sub->allgather_u64(static_cast<std::uint64_t>(ctx.rank()));
    EXPECT_EQ(all.size(), static_cast<std::size_t>(sub->size()));
  });
}

TEST(CommSplit, ParentStillUsableAfterSplit) {
  simmpi::run_test(4, [](Context& ctx) {
    auto sub = ctx.comm.split(ctx.rank() % 2, 0);
    EXPECT_EQ(sub->allreduce_u64(1, Op::kSum), 2u);
    // Interleave parent and child collectives.
    EXPECT_EQ(ctx.comm.allreduce_u64(1, Op::kSum), 4u);
    EXPECT_EQ(sub->allreduce_u64(2, Op::kSum), 4u);
    ctx.comm.barrier();
  });
}

TEST(CommSplit, ChildSharesParentsClock) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.net_latency = 0.5;
  pfs::FileSystem fs(machine, 2);
  simmpi::run(2, machine, fs, [](Context& ctx) {
    auto sub = ctx.comm.split(0, ctx.rank());
    const double before = ctx.clock().now();
    sub->barrier();
    EXPECT_GT(ctx.clock().now(), before)
        << "sub-communicator costs must land on the rank's one timeline";
  });
}

TEST(CommSplit, RepeatedSplitsAndNesting) {
  simmpi::run_test(8, [](Context& ctx) {
    auto half = ctx.comm.split(ctx.rank() / 4, ctx.rank());
    EXPECT_EQ(half->size(), 4);
    auto quarter = half->split(half->rank() / 2, half->rank());
    EXPECT_EQ(quarter->size(), 2);
    EXPECT_EQ(quarter->allreduce_u64(1, Op::kSum), 2u);
    // A second split of the root with the same colors must not collide
    // with the first one's rendezvous.
    auto again = ctx.comm.split(ctx.rank() / 4, ctx.rank());
    EXPECT_EQ(again->size(), 4);
  });
}

TEST(CommSplit, AbortWakesRanksInsideSubCommunicators) {
  EXPECT_THROW(
      simmpi::run_test(4,
                       [](Context& ctx) {
                         auto sub = ctx.comm.split(ctx.rank() % 2, 0);
                         if (ctx.rank() == 0) {
                           throw mutil::Error("boom inside split world");
                         }
                         // Blocked in a child barrier that can never
                         // complete (rank 0 died); the cascading abort
                         // must free it.
                         sub->barrier();
                         sub->barrier();
                         ctx.comm.barrier();
                       }),
      mutil::Error);
}

TEST(CommSplit, SingletonGroups) {
  simmpi::run_test(3, [](Context& ctx) {
    auto solo = ctx.comm.split(ctx.rank(), 0);  // every rank its own group
    EXPECT_EQ(solo->size(), 1);
    EXPECT_EQ(solo->rank(), 0);
    EXPECT_EQ(solo->allreduce_u64(7, Op::kSum), 7u);
  });
}

}  // namespace
