// Non-blocking collectives: payload/ordering semantics of ialltoallv
// and iallreduce_u64, the clock model (immediate wait reproduces the
// blocking collective's time; in-flight compute hides communication and
// is attributed as overlap, not wait), request handles across ranks,
// and error paths (kind mismatch, receive-buffer overflow, abort wake,
// a dropped request).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"
#include "stats/trace.hpp"

namespace {

using simmpi::Context;
using simmpi::Op;
using simmpi::Request;

class NonblockingTest : public ::testing::TestWithParam<int> {};

TEST_P(NonblockingTest, IalltoallvDeliversInSourceRankOrder) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    // Rank r sends (r + 1) bytes of value 10*r + dst to every dst.
    const std::uint64_t chunk = static_cast<std::uint64_t>(r) + 1;
    std::vector<std::byte> send(chunk * static_cast<std::uint64_t>(n));
    std::vector<std::uint64_t> counts(n, chunk), displs(n, 0);
    for (int dst = 0; dst < n; ++dst) {
      displs[dst] = chunk * static_cast<std::uint64_t>(dst);
      std::memset(send.data() + displs[dst], 10 * r + dst, chunk);
    }
    // Receive capacity for the worst case: every source is rank n-1.
    std::vector<std::byte> recv(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(n));
    Request req = ctx.comm.ialltoallv(send, counts, displs, recv);
    req.wait();

    // The received total is discovered at completion; payload is packed
    // contiguously in source-rank order.
    std::uint64_t offset = 0;
    for (int src = 0; src < n; ++src) {
      const std::uint64_t len = static_cast<std::uint64_t>(src) + 1;
      for (std::uint64_t i = 0; i < len; ++i) {
        EXPECT_EQ(std::to_integer<int>(recv[offset + i]), 10 * src + r);
      }
      offset += len;
    }
    EXPECT_EQ(req.bytes_received(), offset);
    EXPECT_EQ(ctx.comm.stats().bytes_received, offset);
    EXPECT_EQ(ctx.comm.stats().bytes_sent,
              chunk * static_cast<std::uint64_t>(n));
  });
}

TEST_P(NonblockingTest, IallreduceReducesLikeBlocking) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    const auto n = static_cast<std::uint64_t>(ctx.size());
    Request sum = ctx.comm.iallreduce_u64(r + 1, Op::kSum);
    Request lor = ctx.comm.iallreduce_u64(ctx.rank() == 0 ? 1 : 0, Op::kLor);
    Request max = ctx.comm.iallreduce_u64(r, Op::kMax);
    sum.wait();
    lor.wait();
    max.wait();
    EXPECT_EQ(sum.value(), n * (n + 1) / 2);
    EXPECT_EQ(lor.value(), 1u);
    EXPECT_EQ(max.value(), n - 1);
  });
}

TEST_P(NonblockingTest, ImmediateWaitMatchesBlockingClock) {
  const int p = GetParam();
  const auto payload = [](Context& ctx) {
    const int n = ctx.size();
    // Skew entry clocks so the rendezvous max matters.
    ctx.clock().advance(0.25 * ctx.rank());
    std::vector<std::byte> send(16 * static_cast<std::size_t>(n));
    std::vector<std::byte> recv(16 * static_cast<std::size_t>(n));
    std::vector<std::uint64_t> counts(n, 16), displs(n, 0);
    for (int i = 0; i < n; ++i) {
      displs[i] = 16 * static_cast<std::uint64_t>(i);
    }
    return std::tuple{send, recv, counts, displs};
  };
  const auto blocking = simmpi::run_test(p, [&](Context& ctx) {
    auto [send, recv, counts, displs] = payload(ctx);
    ctx.comm.alltoallv(send, counts, displs, recv, counts, displs);
    (void)ctx.comm.allreduce_u64(1, Op::kSum);
  });
  const auto overlapped = simmpi::run_test(p, [&](Context& ctx) {
    auto [send, recv, counts, displs] = payload(ctx);
    Request data = ctx.comm.ialltoallv(send, counts, displs, recv);
    data.wait();
    Request red = ctx.comm.iallreduce_u64(1, Op::kSum);
    red.wait();
  });
  EXPECT_DOUBLE_EQ(overlapped.sim_time, blocking.sim_time);
}

TEST_P(NonblockingTest, InFlightComputeHidesCommunicationAsOverlap) {
  const int p = GetParam();
  stats::Collector collector;
  double hidden_at_rank0 = 0.0;
  simmpi::run_test(
      p,
      [&](Context& ctx) {
        const int n = ctx.size();
        std::vector<std::byte> send(1024 * static_cast<std::size_t>(n));
        std::vector<std::byte> recv(1024 * static_cast<std::size_t>(n));
        std::vector<std::uint64_t> counts(n, 1024), displs(n, 0);
        for (int i = 0; i < n; ++i) {
          displs[i] = 1024 * static_cast<std::uint64_t>(i);
        }
        Request req = ctx.comm.ialltoallv(send, counts, displs, recv);
        // Compute long past the operation's completion time, with a
        // blocking collective in between: the wait must neither block
        // in simulated time nor advance the clock further.
        ctx.clock().advance(100.0);
        ctx.comm.barrier();
        const double before = ctx.clock().now();
        req.wait();
        EXPECT_DOUBLE_EQ(ctx.clock().now(), before);
        if (ctx.rank() == 0) hidden_at_rank0 = ctx.clock().now();
      },
      &collector);
  (void)hidden_at_rank0;
  const stats::Summary summary = collector.summary();
  // The whole in-flight interval was hidden: overlap recorded, no wait.
  EXPECT_GT(summary.overlap_total, 0.0);
  EXPECT_DOUBLE_EQ(summary.wait_total, 0.0);
}

TEST_P(NonblockingTest, WaitIsIdempotentAndMovable) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    Request a = ctx.comm.iallreduce_u64(2, Op::kSum);
    Request b = std::move(a);
    // The moved-from handle is empty: waiting on it is a no-op, and
    // destroying it withdraws nothing.
    a.wait();  // NOLINT(bugprone-use-after-move)
    b.wait();
    b.wait();
    EXPECT_EQ(b.value(),
              2 * static_cast<std::uint64_t>(ctx.size()));
  });
}

TEST(NonblockingSingleRank, CompletesAtInitiation) {
  simmpi::run_test(1, [](Context& ctx) {
    std::vector<std::byte> send(8, std::byte{42});
    std::vector<std::byte> recv(8);
    const std::vector<std::uint64_t> counts{8}, displs{0};
    Request req = ctx.comm.ialltoallv(send, counts, displs, recv);
    req.wait();
    EXPECT_EQ(req.bytes_received(), 8u);
    EXPECT_EQ(std::to_integer<int>(recv[0]), 42);
    Request red = ctx.comm.iallreduce_u64(7, Op::kMax);
    red.wait();
    EXPECT_EQ(red.value(), 7u);
  });
}

TEST(NonblockingErrors, KindMismatchAborts) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         if (ctx.rank() == 0) {
                           std::vector<std::byte> buf(2);
                           const std::vector<std::uint64_t> counts{1, 1},
                               displs{0, 1};
                           std::vector<std::byte> recv(2);
                           Request r = ctx.comm.ialltoallv(buf, counts,
                                                           displs, recv);
                           r.wait();
                         } else {
                           Request r =
                               ctx.comm.iallreduce_u64(1, Op::kSum);
                           r.wait();
                         }
                       }),
      mutil::CommError);
}

TEST(NonblockingErrors, RecvBufferOverflowAborts) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         // Every rank sends 8 bytes to each peer but only
                         // provides 4 bytes of receive capacity.
                         std::vector<std::byte> send(16);
                         const std::vector<std::uint64_t> counts{8, 8},
                             displs{0, 8};
                         std::vector<std::byte> recv(4);
                         Request r = ctx.comm.ialltoallv(send, counts,
                                                         displs, recv);
                         r.wait();
                       }),
      mutil::CommError);
}

TEST(NonblockingErrors, SendRegionOutOfBoundsThrows) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         std::vector<std::byte> send(4);  // too small
                         const std::vector<std::uint64_t> counts{8, 8},
                             displs{0, 8};
                         std::vector<std::byte> recv(16);
                         Request r = ctx.comm.ialltoallv(send, counts,
                                                         displs, recv);
                         r.wait();
                       }),
      mutil::CommError);
}

TEST(NonblockingErrors, PeerFailureWakesWaiter) {
  // Rank 1 dies before initiating; rank 0's wait can never complete and
  // must unwind through the abort channel instead of hanging.
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         if (ctx.rank() == 0) {
                           Request r =
                               ctx.comm.iallreduce_u64(1, Op::kSum);
                           r.wait();
                         } else {
                           throw mutil::UsageError("rank 1 dies");
                         }
                       }),
      mutil::UsageError);
}

TEST(NonblockingErrors, DroppingAnUnwaitedRequestIsAUsageError) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         std::vector<std::byte> send(8), recv(8);
                         const std::vector<std::uint64_t> counts{4, 4},
                             displs{0, 4};
                         Request r = ctx.comm.ialltoallv(send, counts,
                                                         displs, recv);
                       }),
      mutil::UsageError);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, NonblockingTest,
                         ::testing::Values(1, 2, 3, 4, 7));

}  // namespace
