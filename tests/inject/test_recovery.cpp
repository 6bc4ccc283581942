// Checkpoint-based recovery under injected faults.
#include "mimir/recovery.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "inject/fault.hpp"
#include "mimir/mimir.hpp"
#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"

namespace {

using inject::FaultPlan;
using mimir::Emitter;
using mimir::Job;
using mimir::JobConfig;
using mimir::KVView;
using mimir::RecoveryJob;
using mimir::RecoveryOutcome;
using mimir::RecoveryPolicy;
using simmpi::Context;

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

/// Thread-safe collection of the whole job output across ranks. Keyed
/// by rank and overwritten per attempt: a rank that finished an attempt
/// another rank failed would otherwise double-count on the retry.
struct OutputSink {
  std::mutex mutex;
  std::map<int, std::map<std::string, std::uint64_t>> by_rank;

  void take(Job& job) {
    std::map<std::string, std::uint64_t> mine;
    job.output().scan([&](const KVView& kv) {
      mine[std::string(kv.key)] += mimir::as_u64(kv.value);
    });
    const std::scoped_lock lock(mutex);
    by_rank[job.context().rank()] = std::move(mine);
  }
  std::map<std::string, std::uint64_t> merged() const {
    std::map<std::string, std::uint64_t> all;
    for (const auto& [rank, kvs] : by_rank) {
      for (const auto& [key, value] : kvs) all[key] += value;
    }
    return all;
  }
};

/// The shared wordcount-ish workload: 3 ranks, 500 emissions each over a
/// 59-key space.
constexpr int kRanks = 3;

RecoveryJob make_job(OutputSink& sink, JobConfig cfg, bool use_pr,
                     bool use_cps) {
  RecoveryJob spec;
  spec.config = cfg;
  spec.map = [use_cps](Job& job) {
    const int rank = job.context().rank();
    const auto produce = [rank](Emitter& out) {
      for (int i = 0; i < 500; ++i) {
        out.emit(std::string("w").append(std::to_string((i * 13 + rank) % 59)),
                 std::uint64_t{1});
      }
    };
    if (use_cps) {
      job.map_custom(produce, sum_combine);
    } else {
      job.map_custom(produce);
    }
  };
  spec.finish = [&sink, use_pr](Job& job) {
    if (use_pr) {
      job.partial_reduce(sum_combine);
    } else {
      job.reduce(sum_reduce);
    }
    sink.take(job);
  };
  return spec;
}

simtime::MachineProfile profile_with_io() {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  return machine;
}

TEST(Recovery, CompletesWithoutFaultsInOneAttempt) {
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, kRanks);
  OutputSink sink;
  const RecoveryOutcome out = mimir::run_with_recovery(
      kRanks, machine, fs, make_job(sink, {}, false, false));
  EXPECT_EQ(out.attempts, 1);
  EXPECT_FALSE(out.resumed);
  EXPECT_FALSE(out.degraded);
  EXPECT_DOUBLE_EQ(out.total_backoff, 0.0);
  ASSERT_EQ(out.history.size(), 1u);
  EXPECT_TRUE(out.history[0].ok);
  EXPECT_EQ(sink.merged().size(), 59u);
  // The throwaway checkpoint is cleaned up by default.
  EXPECT_TRUE(fs.list("ckpt/").empty());
}

TEST(Recovery, RankCrashDuringReduceResumesFromCheckpoint) {
  const auto machine = profile_with_io();
  const FaultPlan plan = FaultPlan::parse("rank_crash:1@reduce");

  // Reference: same job, no faults.
  OutputSink expected;
  {
    pfs::FileSystem fs(machine, kRanks);
    (void)mimir::run_with_recovery(kRanks, machine, fs,
                                   make_job(expected, {}, false, false));
  }

  pfs::FileSystem fs(machine, kRanks);
  OutputSink sink;
  const RecoveryOutcome out = mimir::run_with_recovery(
      kRanks, machine, fs, make_job(sink, {}, false, false), {}, &plan);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.resumed) << "map completed, so the retry must resume";
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].ok);
  EXPECT_EQ(out.history[0].failed_rank, 1);
  EXPECT_DOUBLE_EQ(out.history[0].backoff, 0.5);
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_DOUBLE_EQ(out.total_backoff, 0.5);
  EXPECT_GE(out.stats.sim_time, 0.5) << "backoff rides the simulated clock";
  EXPECT_EQ(sink.merged(), expected.merged());
}

TEST(Recovery, NodeCrashLosesWholeNodeAndResumesFromCheckpoint) {
  // Two simulated nodes of two ranks each; losing node 0 kills ranks 0
  // and 1 at once. The map checkpoint is striped across all four ranks,
  // so the resume proves checkpoint placement survives losing every
  // shard a whole node wrote.
  constexpr int kNodes = 2, kRpn = 2, kWorld = kNodes * kRpn;
  auto machine = profile_with_io();
  machine.ranks_per_node = kRpn;
  const FaultPlan plan = FaultPlan::parse("node_crash:0@reduce");

  OutputSink expected;
  {
    pfs::FileSystem fs(machine, kWorld);
    (void)mimir::run_with_recovery(kWorld, machine, fs,
                                   make_job(expected, {}, false, false));
  }

  pfs::FileSystem fs(machine, kWorld);
  OutputSink sink;
  const RecoveryOutcome out = mimir::run_with_recovery(
      kWorld, machine, fs, make_job(sink, {}, false, false), {}, &plan);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.resumed);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].ok);
  const int failed = out.history[0].failed_rank;
  EXPECT_TRUE(failed == 0 || failed == 1)
      << "node 0 hosts ranks 0 and 1, got " << failed;
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_EQ(sink.merged(), expected.merged());
}

TEST(Recovery, FixedPlanYieldsIdenticalRunsTwice) {
  const auto machine = profile_with_io();
  const FaultPlan plan =
      FaultPlan::parse("rank_crash:2@convert,pfs_slow:2,seed:11");

  const auto once = [&] {
    pfs::FileSystem fs(machine, kRanks);
    OutputSink sink;
    const RecoveryOutcome out = mimir::run_with_recovery(
        kRanks, machine, fs, make_job(sink, {}, false, false), {}, &plan);
    return std::make_tuple(out.attempts, out.total_backoff,
                           out.stats.sim_time, sink.merged());
  };
  const auto run1 = once();
  const auto run2 = once();
  EXPECT_EQ(std::get<0>(run1), std::get<0>(run2));
  EXPECT_EQ(std::get<1>(run1), std::get<1>(run2));
  EXPECT_EQ(std::get<2>(run1), std::get<2>(run2));
  EXPECT_EQ(std::get<3>(run1), std::get<3>(run2));
}

TEST(Recovery, RetriesExhaustedRethrowsAndReportsDiagnostics) {
  const auto machine = profile_with_io();
  const FaultPlan plan =
      FaultPlan::parse("rank_crash:0@map#1,rank_crash:0@map#2");
  RecoveryPolicy policy;
  policy.max_attempts = 2;

  check::Report report;
  check::JobChecker checker(report);
  pfs::FileSystem fs(machine, kRanks);
  OutputSink sink;
  EXPECT_THROW(mimir::run_with_recovery(kRanks, machine, fs,
                                        make_job(sink, {}, false, false),
                                        policy, &plan, nullptr, &checker),
               mutil::RankFailedError);
  EXPECT_EQ(report.count("attempt-failed"), 1u);
  EXPECT_EQ(report.count("retries-exhausted"), 1u);
  EXPECT_EQ(report.first("retries-exhausted").ranks, std::vector<int>{0});
}

TEST(Recovery, UsageErrorsAreNeverRetried) {
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, 1);
  RecoveryJob spec;
  spec.map = [](Job& job) {
    job.map_custom([](Emitter&) {});
    job.map_custom([](Emitter&) {});  // second map: caller bug
  };
  EXPECT_THROW(mimir::run_with_recovery(1, machine, fs, spec),
               mutil::UsageError);
}

TEST(Recovery, TransientPfsErrorsRetryDeterministically) {
  const auto machine = profile_with_io();
  // The spill config below issues a few hundred PFS ops per attempt
  // across the three ranks, so the per-op rate must stay small for an
  // attempt to survive, yet large enough that some attempt dies and the
  // retry path actually runs. The seed makes the whole schedule
  // reproducible.
  const FaultPlan plan = FaultPlan::parse("pfs_error:0.01,seed:3");
  RecoveryPolicy policy;
  policy.max_attempts = 12;

  JobConfig cfg;
  cfg.page_size = 512;
  cfg.comm_buffer = 512;
  cfg.ooc_live_bytes = 2048;  // spill -> plenty of PFS ops to fault

  const auto once = [&] {
    pfs::FileSystem fs(machine, kRanks);
    OutputSink sink;
    const RecoveryOutcome out = mimir::run_with_recovery(
        kRanks, machine, fs, make_job(sink, cfg, true, false), policy,
        &plan);
    return std::make_pair(out.attempts, sink.merged());
  };
  const auto run1 = once();
  const auto run2 = once();
  EXPECT_GT(run1.first, 1) << "plan must actually kill an attempt";
  EXPECT_EQ(run1.first, run2.first);
  EXPECT_EQ(run1.second, run2.second);
  EXPECT_EQ(run1.second.size(), 59u);
}

TEST(Recovery, OomDegradesToOutOfCoreAndCompletes) {
  // Node too small for the in-memory intermediate (cf. the ooc tests:
  // ~88K/rank in memory, ~42K/rank out of core plus the spill budget):
  // the first attempt OOMs, recovery re-runs with the spill budget
  // halved until the job fits out of core. One rank per node keeps each
  // budget single-threaded, so whether an attempt OOMs depends only on
  // its spill budget — never on how the scheduler interleaves two ranks'
  // allocations against a shared node budget.
  constexpr int kOomRanks = 2;
  auto machine = profile_with_io();
  machine.ranks_per_node = 1;
  machine.node_memory = 64 << 10;
  pfs::FileSystem fs(machine, kOomRanks);

  JobConfig cfg;
  cfg.page_size = 2 << 10;
  cfg.comm_buffer = 2 << 10;

  RecoveryJob spec;
  spec.config = cfg;
  spec.map = [](Job& job) {
    const int rank = job.context().rank();
    job.map_custom([rank](Emitter& out) {
      for (int i = 0; i < 4000; ++i) {
        out.emit("key" + std::to_string((i * 2 + rank) % 800),
                 std::uint64_t{1});
      }
    });
  };
  OutputSink sink;
  spec.finish = [&sink](Job& job) {
    job.partial_reduce(sum_combine);
    sink.take(job);
  };

  RecoveryPolicy policy;
  policy.max_attempts = 8;
  const RecoveryOutcome out =
      mimir::run_with_recovery(kOomRanks, machine, fs, spec, policy);
  EXPECT_TRUE(out.degraded);
  EXPECT_GT(out.attempts, 1);
  EXPECT_GT(out.degraded_live_bytes, 0u);
  EXPECT_LT(out.degraded_live_bytes, 48u << 10);
  EXPECT_EQ(sink.merged().size(), 800u);
  for (const auto& [key, count] : sink.merged()) EXPECT_EQ(count, 10u);
}

TEST(Recovery, MemSpikeOverNodeBudgetRecoversOnRetry) {
  constexpr int kSpikeRanks = 2;
  auto machine = profile_with_io();
  machine.ranks_per_node = kSpikeRanks;
  machine.node_memory = 1 << 20;
  pfs::FileSystem fs(machine, kSpikeRanks);
  // Far over the node budget; fires on attempt 1 only.
  const FaultPlan plan = FaultPlan::parse("mem_spike:2M@reduce");

  OutputSink sink;
  const RecoveryOutcome out = mimir::run_with_recovery(
      kSpikeRanks, machine, fs, make_job(sink, {}, false, false), {},
      &plan);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_FALSE(out.history[0].ok);
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_EQ(sink.merged().size(), 59u);
}

TEST(Recovery, OomRetryStartsPastTheFailedAttempt) {
  // One rank per node: each rank's spike overruns its own node budget.
  // Like a rank death, an OOM loses the attempt's simulated time, so
  // the retry starts past it and cannot finish before a fault-free run.
  constexpr int kOomRanks = 2;
  auto machine = profile_with_io();
  machine.ranks_per_node = 1;
  machine.node_memory = 1 << 20;
  machine.kv_rate = 1e4;
  machine.map_rate = 1e4;
  const auto run = [&machine](const FaultPlan* plan) {
    pfs::FileSystem fs(machine, kOomRanks);
    OutputSink sink;
    return mimir::run_with_recovery(kOomRanks, machine, fs,
                                    make_job(sink, {}, false, false), {},
                                    plan);
  };
  const RecoveryOutcome clean = run(nullptr);
  const FaultPlan plan = FaultPlan::parse("mem_spike:2M@reduce");
  const RecoveryOutcome out = run(&plan);
  ASSERT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.degraded);
  EXPECT_GT(out.history[0].failed_time, 0.0);
  EXPECT_GE(out.stats.sim_time,
            out.history[0].failed_time + out.history[0].backoff);
  EXPECT_GT(out.stats.sim_time, clean.stats.sim_time);
}

TEST(Recovery, InvalidPolicyIsRejectedBeforeTheFirstAttempt) {
  const auto machine = profile_with_io();
  const FaultPlan plan = FaultPlan::parse("rank_crash:0@reduce");
  std::vector<RecoveryPolicy> policies(4);
  policies[0].max_attempts = 0;
  policies[1].backoff_base = -1.0;
  policies[2].backoff_base = std::numeric_limits<double>::quiet_NaN();
  policies[3].backoff_factor = 0.5;
  for (const RecoveryPolicy& policy : policies) {
    pfs::FileSystem fs(machine, kRanks);
    OutputSink sink;
    EXPECT_THROW((void)mimir::run_with_recovery(
                     kRanks, machine, fs, make_job(sink, {}, false, false),
                     policy, &plan),
                 mutil::UsageError);
    EXPECT_TRUE(sink.by_rank.empty()) << "no attempt may run";
  }
}

TEST(Recovery, OverlappedShuffleCrashBetweenInitiateAndWait) {
  // The overlapped shuffle opens a window where a round is in flight:
  // after aggregate.initiate and before aggregate.wait. A rank dying in
  // that window leaves peers blocked in a non-blocking wait that can
  // never complete; the abort channel must wake them so the attempt
  // unwinds cleanly, and the retry must reproduce the undisturbed
  // output exactly.
  const auto machine = profile_with_io();

  JobConfig cfg;
  cfg.page_size = 1 << 10;
  cfg.comm_buffer = 1 << 10;  // many rounds -> the window opens often
  cfg.overlap = true;

  OutputSink expected;
  {
    pfs::FileSystem fs(machine, kRanks);
    (void)mimir::run_with_recovery(kRanks, machine, fs,
                                   make_job(expected, cfg, false, false));
  }
  ASSERT_EQ(expected.merged().size(), 59u);

  for (const char* phase : {"aggregate.initiate", "aggregate.wait"}) {
    SCOPED_TRACE(phase);
    const FaultPlan plan =
        FaultPlan::parse(std::string("rank_crash:1@") + phase);
    pfs::FileSystem fs(machine, kRanks);
    OutputSink sink;
    const RecoveryOutcome out = mimir::run_with_recovery(
        kRanks, machine, fs, make_job(sink, cfg, false, false), {},
        &plan);
    EXPECT_EQ(out.attempts, 2);
    ASSERT_EQ(out.history.size(), 2u);
    EXPECT_FALSE(out.history[0].ok);
    EXPECT_EQ(out.history[0].failed_rank, 1);
    EXPECT_TRUE(out.history[1].ok);
    EXPECT_EQ(sink.merged(), expected.merged());
  }
}

TEST(Recovery, CrashedRankWithdrawsItsInFlightExchange) {
  // The ordered twin of the test above: rank 1 initiates and dies, and
  // unwinding frees its buffers before rank 0, the last initiator,
  // joins. The latches fix that order. The exchange must not complete
  // on the freed buffers: rank 0's wait() unwinds with the rank death.
  std::latch freed(1);
  std::latch initiated(1);
  const std::vector<std::uint64_t> counts{4, 4}, displs{0, 4};
  EXPECT_THROW(
      simmpi::run_test(
          2,
          [&](Context& ctx) {
            if (ctx.rank() == 1) {
              try {
                std::vector<std::byte> send(8), recv(8);
                simmpi::Request r =
                    ctx.comm.ialltoallv(send, counts, displs, recv);
                throw mutil::RankFailedError("rank 1 dies", 1);
              } catch (const mutil::RankFailedError&) {
                freed.count_down();
                initiated.wait();
                throw;
              }
            }
            std::vector<std::byte> send(8), recv(8);
            freed.wait();
            simmpi::Request r =
                ctx.comm.ialltoallv(send, counts, displs, recv);
            initiated.count_down();
            try {
              r.wait();
            } catch (const mutil::RankFailedError& e) {
              EXPECT_EQ(e.rank(), 1);
              throw;
            }
            ADD_FAILURE() << "wait() completed an exchange whose peer "
                             "died with it in flight";
          }),
      mutil::RankFailedError);
}

// The property test: kill rank 1 at every phase boundary in turn; the
// recovered output must be identical to the undisturbed run — across
// the baseline, partial-reduce, KV-compression, and KV-hint configs.
struct PhaseKillCase {
  const char* name;
  bool use_pr;
  bool use_cps;
  bool use_hint;
};

// gtest's default print of a case is its raw bytes, which go into the
// ctest name; here they start with the name pointer, which moves with the
// load address, so print the case by name instead.
void PrintTo(const PhaseKillCase& c, std::ostream* os) { *os << c.name; }

class PhaseKill : public ::testing::TestWithParam<PhaseKillCase> {};

TEST_P(PhaseKill, ResumeIsBitIdenticalAtEveryBoundary) {
  const PhaseKillCase& param = GetParam();
  const auto machine = profile_with_io();

  JobConfig cfg;
  cfg.page_size = 1 << 10;
  cfg.comm_buffer = 1 << 10;
  if (param.use_cps) cfg.kv_compression = true;
  if (param.use_hint) cfg.hint = mimir::KVHint::string_key_u64_value();

  // Undisturbed reference.
  OutputSink expected;
  {
    pfs::FileSystem fs(machine, kRanks);
    (void)mimir::run_with_recovery(
        kRanks, machine, fs,
        make_job(expected, cfg, param.use_pr, param.use_cps));
  }
  ASSERT_EQ(expected.merged().size(), 59u);

  std::vector<std::string> phases = {"map", "aggregate", "checkpoint_save"};
  if (param.use_pr) {
    phases.push_back("partial_reduce");
  } else {
    phases.push_back("convert");
    phases.push_back("reduce");
  }

  for (const std::string& phase : phases) {
    SCOPED_TRACE("kill at " + phase);
    const FaultPlan plan = FaultPlan::parse("rank_crash:1@" + phase);
    pfs::FileSystem fs(machine, kRanks);
    OutputSink sink;
    const RecoveryOutcome out = mimir::run_with_recovery(
        kRanks, machine, fs,
        make_job(sink, cfg, param.use_pr, param.use_cps), {}, &plan);
    EXPECT_EQ(out.attempts, 2);
    EXPECT_EQ(sink.merged(), expected.merged());
    // Phases past the checkpoint must resume rather than re-map.
    if (phase == "convert" || phase == "reduce" ||
        phase == "partial_reduce") {
      EXPECT_TRUE(out.resumed);
    }
  }

  // And a second-generation failure: die during the checkpoint *load*
  // of the resumed attempt, then recover again.
  if (!param.use_pr) {
    const FaultPlan plan = FaultPlan::parse(
        "rank_crash:1@reduce,rank_crash:1@checkpoint_load#2");
    pfs::FileSystem fs(machine, kRanks);
    OutputSink sink;
    const RecoveryOutcome out = mimir::run_with_recovery(
        kRanks, machine, fs,
        make_job(sink, cfg, param.use_pr, param.use_cps), {}, &plan);
    EXPECT_EQ(out.attempts, 3);
    EXPECT_TRUE(out.resumed);
    EXPECT_EQ(sink.merged(), expected.merged());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PhaseKill,
    ::testing::Values(PhaseKillCase{"baseline", false, false, false},
                      PhaseKillCase{"pr", true, false, false},
                      PhaseKillCase{"cps", false, true, false},
                      PhaseKillCase{"hint", false, false, true}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

TEST(RecoveryPolicy, ParsesConfigAndRejectsBadValues) {
  mutil::Config cfg;
  cfg.set("mimir.recovery.max_attempts", "3");
  cfg.set("mimir.recovery.backoff_base", "0.25");
  cfg.set("mimir.recovery.backoff_factor", "4");
  cfg.set("mimir.recovery.degrade_on_oom", "false");
  cfg.set("mimir.recovery.checkpoint", "ck");
  cfg.set("mimir.recovery.keep_checkpoint", "true");
  const RecoveryPolicy policy = RecoveryPolicy::from(cfg);
  EXPECT_EQ(policy.max_attempts, 3);
  EXPECT_DOUBLE_EQ(policy.backoff_base, 0.25);
  EXPECT_DOUBLE_EQ(policy.backoff_factor, 4.0);
  EXPECT_FALSE(policy.degrade_on_oom);
  EXPECT_EQ(policy.checkpoint, "ck");
  EXPECT_TRUE(policy.keep_checkpoint);

  mutil::Config bad;
  bad.set("mimir.recovery.max_attempts", "0");
  EXPECT_THROW(RecoveryPolicy::from(bad), mutil::ConfigError);
}

}  // namespace
