#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <numeric>
#include <vector>

#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"
#include "stats/registry.hpp"
#include "stats/trace.hpp"

namespace {

using simmpi::Context;
using simmpi::Op;

// Parameterized over rank counts, including non-powers of two.
class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierSynchronizesClocks) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    // Each rank starts with a different local time; barrier must bring
    // everyone to at least the max.
    ctx.clock().advance(ctx.rank() * 1.0);
    ctx.comm.barrier();
    EXPECT_GE(ctx.clock().now(), ctx.size() - 1.0);
  });
}

TEST_P(CollectiveTest, AllreduceSumMaxMin) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    const int n = ctx.size();
    EXPECT_EQ(ctx.comm.allreduce_u64(r, Op::kSum),
              static_cast<std::uint64_t>(n) * (n - 1) / 2);
    EXPECT_EQ(ctx.comm.allreduce_u64(r, Op::kMax),
              static_cast<std::uint64_t>(n - 1));
    EXPECT_DOUBLE_EQ(ctx.comm.allreduce_f64(ctx.rank() - 5.0, Op::kMin),
                     -5.0);
    EXPECT_DOUBLE_EQ(ctx.comm.allreduce_f64(0.5, Op::kSum), 0.5 * n);
    EXPECT_EQ(ctx.comm.allreduce_u64(r + 1, Op::kMax),
              static_cast<std::uint64_t>(n));
  });
}

TEST_P(CollectiveTest, AllreduceLogicalOps) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const bool only_last = ctx.rank() == ctx.size() - 1;
    EXPECT_TRUE(ctx.comm.allreduce_lor(only_last));
    EXPECT_FALSE(ctx.comm.allreduce_lor(false));
    EXPECT_FALSE(ctx.comm.allreduce_land(only_last) && ctx.size() > 1);
    EXPECT_TRUE(ctx.comm.allreduce_land(true));
  });
}

TEST_P(CollectiveTest, AllgatherCollectsInRankOrder) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const auto values =
        ctx.comm.allgather_u64(static_cast<std::uint64_t>(ctx.rank()) * 10);
    ASSERT_EQ(values.size(), static_cast<std::size_t>(ctx.size()));
    for (int i = 0; i < ctx.size(); ++i) {
      EXPECT_EQ(values[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i) * 10);
    }
  });
}

TEST_P(CollectiveTest, BcastDistributesRootValue) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int root = ctx.size() - 1;
    EXPECT_EQ(ctx.comm.bcast_u64(ctx.rank() == root ? 777u : 0u, root),
              777u);
    std::vector<std::byte> buf(16);
    if (ctx.rank() == root) {
      std::memset(buf.data(), 0x5a, buf.size());
    }
    ctx.comm.bcast(buf, root);
    for (const auto b : buf) {
      EXPECT_EQ(static_cast<unsigned char>(b), 0x5a);
    }
  });
}

TEST_P(CollectiveTest, AlltoallU64Transposes) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    // values[d] = r * 100 + d; after exchange, result[s] = s * 100 + r.
    std::vector<std::uint64_t> values(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      values[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(r * 100 + d);
    }
    const auto result = ctx.comm.alltoall_u64(values);
    ASSERT_EQ(result.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(result[static_cast<std::size_t>(s)],
                static_cast<std::uint64_t>(s * 100 + r));
    }
  });
}

TEST_P(CollectiveTest, AlltoallvMovesVariableBlocks) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    // Rank r sends (d + 1) copies of byte value r to rank d.
    std::vector<std::uint64_t> send_counts(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> send_displs(static_cast<std::size_t>(n));
    std::uint64_t total = 0;
    for (int d = 0; d < n; ++d) {
      send_displs[static_cast<std::size_t>(d)] = total;
      send_counts[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(d + 1);
      total += static_cast<std::uint64_t>(d + 1);
    }
    std::vector<std::byte> send(total, static_cast<std::byte>(r));

    const auto recv_counts = ctx.comm.alltoall_u64(send_counts);
    std::vector<std::uint64_t> recv_displs(static_cast<std::size_t>(n));
    std::uint64_t recv_total = 0;
    for (int s = 0; s < n; ++s) {
      recv_displs[static_cast<std::size_t>(s)] = recv_total;
      recv_total += recv_counts[static_cast<std::size_t>(s)];
    }
    // Everyone sends me (r + 1) bytes.
    EXPECT_EQ(recv_total, static_cast<std::uint64_t>(n) * (r + 1));
    std::vector<std::byte> recv(recv_total);
    ctx.comm.alltoallv(send, send_counts, send_displs, recv, recv_counts,
                       recv_displs);
    for (int s = 0; s < n; ++s) {
      for (std::uint64_t i = 0; i < recv_counts[static_cast<std::size_t>(s)];
           ++i) {
        EXPECT_EQ(static_cast<int>(
                      recv[recv_displs[static_cast<std::size_t>(s)] + i]),
                  s);
      }
    }
    EXPECT_GE(ctx.comm.stats().bytes_sent, total);
  });
}

TEST_P(CollectiveTest, GathervConcatenatesAtRoot) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const std::string mine(static_cast<std::size_t>(ctx.rank() + 1),
                           static_cast<char>('a' + ctx.rank() % 26));
    const auto result = ctx.comm.gatherv(
        0, std::span<const std::byte>(
               reinterpret_cast<const std::byte*>(mine.data()), mine.size()));
    if (ctx.rank() == 0) {
      ASSERT_EQ(result.counts.size(), static_cast<std::size_t>(ctx.size()));
      std::uint64_t offset = 0;
      for (int s = 0; s < ctx.size(); ++s) {
        EXPECT_EQ(result.counts[static_cast<std::size_t>(s)],
                  static_cast<std::uint64_t>(s + 1));
        for (std::uint64_t i = 0; i < result.counts[static_cast<std::size_t>(s)]; ++i) {
          EXPECT_EQ(static_cast<char>(result.data[offset + i]),
                    static_cast<char>('a' + s % 26));
        }
        offset += result.counts[static_cast<std::size_t>(s)];
      }
    } else {
      EXPECT_TRUE(result.data.empty());
    }
  });
}

TEST_P(CollectiveTest, RepeatedCollectivesStaySound) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    // Stress generation handling: many back-to-back collectives.
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(ctx.comm.allreduce_u64(1, Op::kSum),
                static_cast<std::uint64_t>(ctx.size()));
      ctx.comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(CollectiveErrors, AlltoallvChecksBounds) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         std::vector<std::byte> send(4), recv(4);
                         std::vector<std::uint64_t> counts{8, 8};  // > size
                         std::vector<std::uint64_t> displs{0, 0};
                         ctx.comm.alltoallv(send, counts, displs, recv,
                                            counts, displs);
                       }),
      mutil::CommError);
}

TEST(CollectiveErrors, BadRootRejected) {
  EXPECT_THROW(simmpi::run_test(
                   2, [](Context& ctx) { ctx.comm.bcast_u64(1, 5); }),
               mutil::CommError);
}

TEST(CollectiveClocks, AlltoallvChargesBytesOverBandwidth) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.net_latency = 0.0;
  machine.net_bandwidth = 1000.0;  // 1000 B/s for easy math
  pfs::FileSystem fs(machine, 2);
  simmpi::run(2, machine, fs, [](Context& ctx) {
    std::vector<std::byte> send(2000), recv(2000);
    std::vector<std::uint64_t> counts{1000, 1000};
    std::vector<std::uint64_t> displs{0, 1000};
    ctx.comm.alltoallv(send, counts, displs, recv, counts, displs);
    // 2000 bytes at 1000 B/s = 2 simulated seconds.
    EXPECT_DOUBLE_EQ(ctx.clock().now(), 2.0);
  });
}

// Every blocking collective charges one formula: the exit clock is the
// slowest entry plus collective_latency() plus, for the data-moving
// collectives, the bytes moved over the bandwidth; each rank records the
// gap between its own entry and the slowest entry as wait.
struct ClockCase {
  const char* name;
  /// Runs the collective on this rank; returns the bytes it charges.
  std::uint64_t (*run)(Context& ctx);
};

const ClockCase kClockCases[] = {
    {"barrier",
     [](Context& ctx) -> std::uint64_t {
       ctx.comm.barrier();
       return 0;
     }},
    {"alltoallv",
     [](Context& ctx) -> std::uint64_t {
       // Rank r sends 8 * (r + 1) bytes to every rank, so sent and
       // received bytes differ per rank.
       const auto n = static_cast<std::size_t>(ctx.size());
       const std::uint64_t mine =
           8 * (static_cast<std::uint64_t>(ctx.rank()) + 1);
       std::vector<std::uint64_t> send_counts(n, mine), send_displs(n);
       std::vector<std::uint64_t> recv_counts(n), recv_displs(n);
       std::uint64_t received = 0;
       for (std::size_t i = 0; i < n; ++i) {
         send_displs[i] = mine * i;
         recv_counts[i] = 8 * (i + 1);
         recv_displs[i] = received;
         received += recv_counts[i];
       }
       const std::vector<std::byte> send(mine * n);
       std::vector<std::byte> recv(received);
       ctx.comm.alltoallv(send, send_counts, send_displs, recv, recv_counts,
                          recv_displs);
       return std::max(mine * n, received);
     }},
    {"alltoall_u64",
     [](Context& ctx) -> std::uint64_t {
       const std::vector<std::uint64_t> values(
           static_cast<std::size_t>(ctx.size()), 3);
       (void)ctx.comm.alltoall_u64(values);
       return 0;
     }},
    {"allreduce_u64",
     [](Context& ctx) -> std::uint64_t {
       (void)ctx.comm.allreduce_u64(1, Op::kSum);
       return 0;
     }},
    {"allreduce_f64",
     [](Context& ctx) -> std::uint64_t {
       (void)ctx.comm.allreduce_f64(0.5, Op::kMax);
       return 0;
     }},
    {"allgather_u64",
     [](Context& ctx) -> std::uint64_t {
       (void)ctx.comm.allgather_u64(static_cast<std::uint64_t>(ctx.rank()));
       return 0;
     }},
    {"bcast",
     [](Context& ctx) -> std::uint64_t {
       std::vector<std::byte> data(24);
       ctx.comm.bcast(data, ctx.size() - 1);
       return data.size();
     }},
    {"bcast_u64",
     [](Context& ctx) -> std::uint64_t {
       (void)ctx.comm.bcast_u64(9, ctx.size() - 1);
       return 0;
     }},
    {"gatherv",
     [](Context& ctx) -> std::uint64_t {
       // The root moves every rank's payload, the others their own.
       const int root = ctx.size() / 2;
       const auto payload = [](int r) {
         return 10 * (static_cast<std::uint64_t>(r) + 1);
       };
       const std::vector<std::byte> mine(payload(ctx.rank()));
       (void)ctx.comm.gatherv(root, mine);
       if (ctx.rank() != root) return mine.size();
       std::uint64_t total = 0;
       for (int r = 0; r < ctx.size(); ++r) total += payload(r);
       return total;
     }},
};

TEST(CollectiveClocks, EveryBlockingCollectiveChargesTheRendezvousFormula) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.net_latency = 0.125;
  machine.net_bandwidth = 1000.0;
  for (const int n : {2, 5}) {
    const double latency =
        machine.net_latency *
        static_cast<double>(std::bit_width(static_cast<unsigned>(n - 1)));
    // Skewed entry clocks; for n = 5 the slowest rank is neither the
    // first nor the last.
    const auto entry = [n](int r) { return 0.375 * ((3 * r + 1) % n); };
    double slowest = 0.0;
    for (int r = 0; r < n; ++r) slowest = std::max(slowest, entry(r));
    for (const ClockCase& c : kClockCases) {
      pfs::FileSystem fs(machine, n);
      stats::Collector collector;
      simmpi::run(
          n, machine, fs,
          [&](Context& ctx) {
            ctx.clock().advance(entry(ctx.rank()));
            const std::uint64_t bytes = c.run(ctx);
            EXPECT_DOUBLE_EQ(ctx.clock().now(),
                             slowest + latency +
                                 static_cast<double>(bytes) /
                                     machine.net_bandwidth)
                << c.name << ", " << n << " ranks, rank " << ctx.rank();
            EXPECT_DOUBLE_EQ(stats::current()->wait_total(),
                             slowest - entry(ctx.rank()))
                << c.name << ", " << n << " ranks, rank " << ctx.rank();
          },
          &collector);
    }
  }
}

}  // namespace
