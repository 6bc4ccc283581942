// Out-of-core KVContainer / Job tests (extension feature).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "mimir/mimir.hpp"
#include "mutil/error.hpp"
#include "mutil/hash.hpp"
#include "simmpi/runtime.hpp"

namespace {

using mimir::Emitter;
using mimir::Job;
using mimir::JobConfig;
using mimir::KVContainer;
using mimir::KVView;
using mimir::SpillConfig;
using simmpi::Context;

SpillConfig spill_for(Context& ctx, const std::string& file,
                      std::uint64_t live) {
  return {&ctx.fs, &ctx.clock(), file, live};
}

TEST(OocContainer, SpillsOldestPagesAndRoundTrips) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 256);
    kvc.enable_spill(spill_for(ctx, "spill/a", 1024));
    std::map<std::string, std::string> expected;
    for (int i = 0; i < 200; ++i) {
      const std::string key = "key" + std::to_string(i);
      kvc.append(key, "value");
      expected[key] = "value";
    }
    EXPECT_TRUE(kvc.spilled());
    EXPECT_LE(kvc.allocated_bytes(), 1024u + 256u)
        << "live pages stay within the bound";
    EXPECT_LE(ctx.tracker.current(), 1024u + 256u);

    // Order-preserving, content-exact streaming.
    std::map<std::string, std::string> seen;
    int order_probe = 0;
    kvc.scan([&](const KVView& kv) {
      seen[std::string(kv.key)] = std::string(kv.value);
      if (kv.key == "key0") {
        EXPECT_EQ(order_probe, 0);
      }
      ++order_probe;
    });
    EXPECT_EQ(seen, expected);
    // Scans are repeatable.
    std::uint64_t again = 0;
    kvc.scan([&](const KVView&) { ++again; });
    EXPECT_EQ(again, 200u);
  });
}

TEST(OocContainer, ConsumeDrainsAndRemovesSpillFile) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 128);
    kvc.enable_spill(spill_for(ctx, "spill/b", 512));
    for (int i = 0; i < 100; ++i) {
      kvc.append(std::string("k").append(std::to_string(i)), "v");
    }
    EXPECT_TRUE(ctx.fs.exists("spill/b"));
    int count = 0;
    kvc.consume([&](const KVView&) { ++count; });
    EXPECT_EQ(count, 100);
    EXPECT_FALSE(ctx.fs.exists("spill/b"));
    EXPECT_TRUE(kvc.empty());
    EXPECT_EQ(ctx.tracker.current(), 0u);
  });
}

TEST(OocContainer, DestructorRemovesSpillFile) {
  simmpi::run_test(1, [](Context& ctx) {
    {
      KVContainer kvc(ctx.tracker, 128);
      kvc.enable_spill(spill_for(ctx, "spill/c", 256));
      for (int i = 0; i < 60; ++i) {
        kvc.append(std::string("k").append(std::to_string(i)), "v");
      }
      EXPECT_TRUE(ctx.fs.exists("spill/c"));
    }
    EXPECT_FALSE(ctx.fs.exists("spill/c"));
  });
}

TEST(OocContainer, EnableSpillOnNonEmptyRejected) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 128);
    kvc.append("k", "v");
    EXPECT_THROW(kvc.enable_spill(spill_for(ctx, "spill/d", 256)),
                 mutil::UsageError);
  });
}

TEST(OocContainer, MoveTransfersSpillOwnership) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer a(ctx.tracker, 128);
    a.enable_spill(spill_for(ctx, "spill/e", 256));
    for (int i = 0; i < 60; ++i) a.append("k" + std::to_string(i), "v");
    KVContainer b = std::move(a);
    EXPECT_TRUE(ctx.fs.exists("spill/e"));
    std::uint64_t count = 0;
    b.scan([&](const KVView&) { ++count; });
    EXPECT_EQ(count, 60u);
    b.clear();
    EXPECT_FALSE(ctx.fs.exists("spill/e"));
  });
}

void sum_reduce(std::string_view key, mimir::ValueReader& values,
                Emitter& out) {
  std::uint64_t total = 0;
  std::string_view v;
  while (values.next(v)) total += mimir::as_u64(v);
  out.emit(key, total);
}

void sum_combine(std::string_view, std::string_view a, std::string_view b,
                 std::string& out) {
  out.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
}

class OocJob : public ::testing::TestWithParam<bool> {};

TEST_P(OocJob, ResultsMatchInMemoryRun) {
  const bool use_pr = GetParam();
  constexpr int kRanks = 3;
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);

  std::uint64_t digests[2] = {0, 0};
  int idx = 0;
  for (const std::uint64_t ooc : {std::uint64_t{0}, std::uint64_t{2048}}) {
    simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
      JobConfig cfg;
      cfg.page_size = 512;
      cfg.comm_buffer = 512;
      cfg.ooc_live_bytes = ooc;
      Job job(ctx, cfg);
      job.map_custom([&](Emitter& out) {
        for (int i = 0; i < 2000; ++i) {
          out.emit(std::string("w").append(
                       std::to_string((i * 31 + ctx.rank()) % 97)),
                   std::uint64_t{1});
        }
      });
      if (ooc != 0) {
        EXPECT_TRUE(ctx.comm.allreduce_lor(job.intermediate().spilled()))
            << "the tiny budget must force spilling somewhere";
      }
      if (use_pr) {
        job.partial_reduce(sum_combine);
      } else {
        job.reduce(sum_reduce);
      }
      std::uint64_t digest = 0;
      job.output().scan([&](const KVView& kv) {
        digest +=
            mutil::hash_bytes(kv.key) * mimir::as_u64(kv.value);
      });
      const auto total = ctx.comm.allreduce_u64(digest, simmpi::Op::kSum);
      if (ctx.rank() == 0) digests[idx] = total;
    });
    ++idx;
  }
  EXPECT_EQ(digests[0], digests[1])
      << "out-of-core execution must be result-identical";
}

INSTANTIATE_TEST_SUITE_P(ReducePaths, OocJob, ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "partial_reduce"
                                                   : "reduce";
                         });

TEST(OocJob, SurvivesNodeBudgetThatKillsInMemoryRun) {
  // A node too small for the intermediate data: the in-memory run OOMs,
  // the out-of-core run completes (slowly, on the PFS).
  // The budget must be deterministic under concurrent rank allocation:
  // far below the in-memory intermediate (~176K node-wide) and far above
  // the OOC working set (~84K worst case with both ranks at peak
  // simultaneously).
  constexpr int kRanks = 2;
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = kRanks;
  machine.node_memory = 96 << 10;
  pfs::FileSystem fs(machine, kRanks);

  const auto workload = [](Context& ctx, std::uint64_t ooc) {
    JobConfig cfg;
    cfg.page_size = 2 << 10;
    cfg.comm_buffer = 2 << 10;
    cfg.ooc_live_bytes = ooc;
    Job job(ctx, cfg);
    // High duplication over a bounded key set: the raw intermediate
    // volume (which the OOC budget bounds) dwarfs the combiner bucket.
    job.map_custom([&](Emitter& out) {
      for (int i = 0; i < 4000; ++i) {
        out.emit("key" + std::to_string((i * 2 + ctx.rank()) % 800),
                 std::uint64_t{1});
      }
    });
    job.partial_reduce(sum_combine);
    std::uint64_t n = 0;
    job.output().scan([&](const KVView&) { ++n; });
    return ctx.comm.allreduce_u64(n, simmpi::Op::kSum);
  };

  EXPECT_THROW(simmpi::run(kRanks, machine, fs,
                           [&](Context& ctx) { workload(ctx, 0); }),
               mutil::OutOfMemoryError);

  std::uint64_t unique = 0;
  simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
    const auto n = workload(ctx, 8 << 10);
    if (ctx.rank() == 0) unique = n;
  });
  EXPECT_EQ(unique, 800u);
}

TEST(OocJob, SpillingChargesSimulatedTime) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e5;
  machine.pfs_client_bandwidth = 1e5;
  double times[2];
  int idx = 0;
  for (const std::uint64_t ooc : {std::uint64_t{0}, std::uint64_t{1024}}) {
    pfs::FileSystem fs(machine, 1);
    const auto stats = simmpi::run(1, machine, fs, [&](Context& ctx) {
      JobConfig cfg;
      cfg.page_size = 512;
      cfg.comm_buffer = 512;
      cfg.ooc_live_bytes = ooc;
      Job job(ctx, cfg);
      job.map_custom([](Emitter& out) {
        for (int i = 0; i < 1500; ++i) {
          out.emit(std::string("k").append(std::to_string(i)),
                   std::uint64_t{1});
        }
      });
      job.partial_reduce(sum_combine);
    });
    times[idx++] = stats.sim_time;
  }
  EXPECT_GT(times[1], times[0] * 2)
      << "going out of core must cost simulated I/O time";
}

}  // namespace
