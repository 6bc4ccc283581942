// Fault-plan parsing and injector hook semantics.
#include "inject/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "memtrack/tracker.hpp"
#include "mimir/mimir.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "mutil/hash.hpp"
#include "simmpi/runtime.hpp"
#include "simtime/clock.hpp"

namespace {

using inject::FaultPlan;
using inject::Injector;

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "rank_crash:2@reduce#2,pfs_error:0.01,pfs_slow:3,"
      "mem_spike:8K@convert,seed:42");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 2);
  EXPECT_EQ(plan.crashes[0].trigger.phase, "reduce");
  EXPECT_FALSE(plan.crashes[0].trigger.is_time());
  EXPECT_EQ(plan.crashes[0].attempt, 2);
  ASSERT_EQ(plan.spikes.size(), 1u);
  EXPECT_EQ(plan.spikes[0].bytes, 8u << 10);
  EXPECT_EQ(plan.spikes[0].trigger.phase, "convert");
  EXPECT_EQ(plan.spikes[0].attempt, 1);
  EXPECT_DOUBLE_EQ(plan.pfs_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.pfs_slowdown, 3.0);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ParsesTimeTrigger) {
  const FaultPlan plan = FaultPlan::parse("rank_crash:0@1.5");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_TRUE(plan.crashes[0].trigger.is_time());
  EXPECT_DOUBLE_EQ(plan.crashes[0].trigger.at_time, 1.5);
}

TEST(FaultPlan, EmptySpecAndConfigRoundTrip) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  mutil::Config cfg;
  EXPECT_FALSE(FaultPlan::from(cfg).has_value());
  cfg.set("mimir.inject", "pfs_error:0.5");
  const auto plan = FaultPlan::from(cfg);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->pfs_error_rate, 0.5);
}

TEST(FaultPlan, ParsesNodeCrashClause) {
  const FaultPlan plan = FaultPlan::parse("node_crash:1@reduce#2");
  ASSERT_EQ(plan.node_crashes.size(), 1u);
  EXPECT_EQ(plan.node_crashes[0].node, 1);
  EXPECT_EQ(plan.node_crashes[0].trigger.phase, "reduce");
  EXPECT_EQ(plan.node_crashes[0].attempt, 2);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("node_crash:-1@map"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("node_crash:1"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("bogus:1@map"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("rank_crash"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("rank_crash:1"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("rank_crash:-1@map"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("rank_crash:1@map#0"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("rank_crash:1@-2"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("pfs_error:1.5"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("pfs_error:x"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("pfs_slow:0.5"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("seed:-3"), mutil::ConfigError);
  EXPECT_THROW(FaultPlan::parse("mem_spike:8K"), mutil::ConfigError);
}

TEST(Injector, CrashFiresOnMatchingRankPhaseAndAttempt) {
  const FaultPlan plan = FaultPlan::parse("rank_crash:1@reduce");
  Injector other_rank(plan, 0);
  other_rank.at_phase("reduce");  // wrong rank: no-op

  Injector wrong_phase(plan, 1);
  wrong_phase.at_phase("map");  // wrong phase: no-op

  Injector wrong_attempt(plan, 1, 2);
  wrong_attempt.at_phase("reduce");  // clause is for attempt 1: no-op

  Injector victim(plan, 1);
  try {
    victim.at_phase("reduce");
    FAIL() << "expected RankFailedError";
  } catch (const mutil::RankFailedError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
}

TEST(Injector, NodeCrashKillsEveryRankOfTheNodeGroup) {
  const FaultPlan plan = FaultPlan::parse("node_crash:1@reduce");
  // With two ranks per node, node 1 hosts world ranks 2 and 3.
  for (const int rank : {2, 3}) {
    Injector victim(plan, rank);
    victim.set_topology(2);
    try {
      victim.at_phase("reduce");
      FAIL() << "expected RankFailedError on rank " << rank;
    } catch (const mutil::RankFailedError& e) {
      EXPECT_EQ(e.rank(), rank);
    }
  }
  Injector survivor(plan, 1);  // node 0 under the same topology
  survivor.set_topology(2);
  survivor.at_phase("reduce");  // no-op

  // Default topology is one rank per node: rank 1 IS node 1.
  Injector single(plan, 1);
  try {
    single.at_phase("reduce");
    FAIL() << "expected RankFailedError";
  } catch (const mutil::RankFailedError& e) {
    EXPECT_EQ(e.rank(), 1);
  }

  Injector bad(plan, 0);
  EXPECT_THROW(bad.set_topology(0), mutil::UsageError);
}

TEST(Injector, TimeTriggerFiresOncePastDeadline) {
  const FaultPlan plan = FaultPlan::parse("rank_crash:0@2.0");
  simtime::Clock clock;
  memtrack::Tracker tracker;
  Injector injector(plan, 0);
  injector.bind(&clock, &tracker);

  EXPECT_DOUBLE_EQ(injector.on_pfs(64), 1.0);  // before the deadline
  clock.advance(3.0);
  try {
    injector.on_pfs(64);
    FAIL() << "expected RankFailedError";
  } catch (const mutil::RankFailedError& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_DOUBLE_EQ(e.sim_time(), 3.0);
  }
}

TEST(Injector, MemSpikeRaisesTrackerPeakWithoutResidualCharge) {
  const FaultPlan plan = FaultPlan::parse("mem_spike:4K@convert");
  simtime::Clock clock;
  memtrack::Tracker tracker;
  Injector injector(plan, 0);
  injector.bind(&clock, &tracker);
  injector.at_phase("convert");
  EXPECT_EQ(tracker.peak(), 4u << 10);
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_EQ(injector.stats().mem_spikes, 1u);
}

TEST(Injector, PfsErrorsAreDeterministicPerRankAndAttempt) {
  const FaultPlan plan = FaultPlan::parse("pfs_error:0.2,seed:7");
  const auto error_pattern = [&](int rank, int attempt) {
    Injector injector(plan, rank, attempt);
    std::vector<bool> failed;
    for (int op = 0; op < 200; ++op) {
      try {
        injector.on_pfs(128);
        failed.push_back(false);
      } catch (const mutil::TransientIoError&) {
        failed.push_back(true);
      }
    }
    return failed;
  };
  const auto run1 = error_pattern(0, 1);
  EXPECT_EQ(run1, error_pattern(0, 1)) << "same stream must replay";
  EXPECT_NE(run1, error_pattern(1, 1)) << "ranks draw independent streams";
  EXPECT_NE(run1, error_pattern(0, 2)) << "attempts draw fresh streams";
  EXPECT_GT(std::count(run1.begin(), run1.end(), true), 0);
}

TEST(Injector, PfsSlowdownReturnedForSurvivingOps) {
  const FaultPlan plan = FaultPlan::parse("pfs_slow:4");
  Injector injector(plan, 0);
  EXPECT_DOUBLE_EQ(injector.on_pfs(1024), 4.0);
}

TEST(InjectHooks, NoOpWhenUnbound) {
  EXPECT_EQ(inject::current(), nullptr);
  inject::phase_point("map");  // must not crash
  EXPECT_DOUBLE_EQ(inject::pfs_point(4096), 1.0);
}

TEST(InjectHooks, ScopedBindRestoresPrevious) {
  const FaultPlan plan = FaultPlan::parse("pfs_slow:2");
  Injector injector(plan, 0);
  {
    inject::ScopedInject scope(&injector);
    EXPECT_EQ(inject::current(), &injector);
    EXPECT_DOUBLE_EQ(inject::pfs_point(1), 2.0);
  }
  EXPECT_EQ(inject::current(), nullptr);
}

// The acceptance bar for the whole layer: with injection disabled (an
// injector bound with an empty plan, or none at all), simulated results
// are bit-identical to an uninstrumented run.
TEST(InjectEquivalence, EmptyPlanIsBitIdentical) {
  constexpr int kRanks = 3;
  const FaultPlan empty_plan;
  ASSERT_TRUE(empty_plan.empty());

  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;

  const auto workload = [&](bool bind_injector) {
    pfs::FileSystem fs(machine, kRanks);
    return simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
      std::optional<Injector> injector;
      std::optional<inject::ScopedInject> scope;
      if (bind_injector) {
        injector.emplace(empty_plan, ctx.rank());
        injector->bind(&ctx.clock(), &ctx.tracker);
        scope.emplace(&*injector);
      }
      mimir::JobConfig cfg;
      cfg.page_size = 512;
      cfg.comm_buffer = 512;
      cfg.ooc_live_bytes = 2048;  // exercise the PFS hook path too
      mimir::Job job(ctx, cfg);
      job.map_custom([&](mimir::Emitter& out) {
        for (int i = 0; i < 800; ++i) {
          out.emit(std::string("w").append(
                       std::to_string((i * 31 + ctx.rank()) % 67)),
                   std::uint64_t{1});
        }
      });
      job.partial_reduce([](std::string_view, std::string_view a,
                            std::string_view b, std::string& out) {
        out.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
      });
    });
  };

  const auto plain = workload(false);
  const auto with_injector = workload(true);
  // Simulated results must match exactly. (node_peak is deliberately
  // not compared: it aggregates live thread interleavings across the
  // rank threads and varies run to run even without any injector.)
  EXPECT_EQ(plain.sim_time, with_injector.sim_time);
  EXPECT_EQ(plain.io.bytes_written, with_injector.io.bytes_written);
  EXPECT_EQ(plain.io.bytes_read, with_injector.io.bytes_read);
}

}  // namespace
