// mimir-balance tests: the sketch's SpaceSaving guarantee and
// deterministic serialization, the planner's cross-run determinism and
// key->rank contract (audited the same way the shuffle's hash routing
// is), bit-identical job results with balance on vs off, race-free
// sampler/plan exchange under mimir-race, and clean recovery from
// crashes injected at the balance.plan / balance.merge phase points.
#include "balance/balancer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "balance/plan.hpp"
#include "balance/sketch.hpp"
#include "check/checker.hpp"
#include "inject/fault.hpp"
#include "mimir/containers.hpp"
#include "mimir/job.hpp"
#include "mimir/mimir.hpp"
#include "mimir/recovery.hpp"
#include "mimir/shuffle.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "mutil/hash.hpp"
#include "simmpi/runtime.hpp"
#include "stats/trace.hpp"

namespace {

using balance::Balancer;
using balance::KeyFreqSketch;
using balance::Options;
using balance::Plan;
using balance::PlanEntry;
using check::CheckConfig;
using check::JobChecker;
using check::Report;
using inject::FaultPlan;
using mimir::Emitter;
using mimir::Job;
using mimir::JobConfig;
using mimir::KVContainer;
using mimir::KVView;
using mimir::Shuffle;
using simmpi::Context;

CheckConfig race_config() {
  CheckConfig cfg;
  cfg.race = true;
  return cfg;
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

/// Skewed workload: every rank hammers one hot key (plus a rank-spread
/// tail) so the hash fallback overloads the hot key's owner and the
/// planner has something to split.
void skewed_produce(int rank, Emitter& out) {
  for (int i = 0; i < 1200; ++i) out.emit("hot", std::uint64_t{1});
  for (int i = 0; i < 600; ++i) {
    out.emit(std::string("w").append(std::to_string((i * 13 + rank) % 59)),
             std::uint64_t{1});
  }
}

// --- sketch ---------------------------------------------------------------

TEST(BalanceSketch, HeavyHitterGuaranteeHolds) {
  // capacity 4 -> any key above total/4 bytes must surface.
  KeyFreqSketch sketch(4, 32, 2);
  for (int i = 0; i < 100; ++i) sketch.offer("hot", 100, 0);
  for (int i = 0; i < 400; ++i) {
    sketch.offer(std::string("t").append(std::to_string(i % 97)), 10, i % 2);
  }
  ASSERT_TRUE(sketch.heavy().contains("hot"));
  const auto& entry = sketch.heavy().find("hot")->second;
  // estimate - error <= true volume <= estimate.
  EXPECT_GE(entry.bytes, 100u * 100u);
  EXPECT_LE(entry.bytes - entry.error, 100u * 100u);
  EXPECT_EQ(sketch.total_bytes(), 100u * 100u + 400u * 10u);
  EXPECT_EQ(sketch.offered_kvs(), 500u);
  EXPECT_LE(sketch.heavy().size(), 4u);
}

TEST(BalanceSketch, DestBytesTrackFallbackRoutingExactly) {
  KeyFreqSketch sketch(8, 32, 3);
  sketch.offer("a", 5, 0);
  sketch.offer("b", 7, 2);
  sketch.offer("c", 11, 2);
  ASSERT_EQ(sketch.dest_bytes().size(), 3u);
  EXPECT_EQ(sketch.dest_bytes()[0], 5u);
  EXPECT_EQ(sketch.dest_bytes()[1], 0u);
  EXPECT_EQ(sketch.dest_bytes()[2], 18u);
}

TEST(BalanceSketch, SerializationRoundTripsBitIdentically) {
  KeyFreqSketch sketch(4, 16, 2);
  for (int i = 0; i < 300; ++i) {
    sketch.offer(std::string("k").append(std::to_string(i % 23)), 8 + i % 5,
                 i % 2);
  }
  const auto blob = sketch.serialize();
  const KeyFreqSketch back = KeyFreqSketch::deserialize(blob);
  EXPECT_EQ(back.serialize(), blob);
  EXPECT_EQ(back.total_bytes(), sketch.total_bytes());
  EXPECT_EQ(back.offered_kvs(), sketch.offered_kvs());
  EXPECT_EQ(back.distinct_estimate(), sketch.distinct_estimate());
  EXPECT_EQ(back.heavy().size(), sketch.heavy().size());
}

TEST(BalanceSketch, DeserializeRejectsTruncatedBlob) {
  KeyFreqSketch sketch(4, 16, 2);
  sketch.offer("abc", 10, 0);
  auto blob = sketch.serialize();
  blob.resize(blob.size() - 3);
  EXPECT_THROW(KeyFreqSketch::deserialize(blob), mutil::UsageError);
  EXPECT_THROW(
      KeyFreqSketch::deserialize(std::span<const std::byte>(blob.data(), 2)),
      mutil::UsageError);
}

TEST(BalanceSketch, MergeSumsTotalsAndUnionsHeavyKeys) {
  KeyFreqSketch a(4, 16, 2);
  KeyFreqSketch b(4, 16, 2);
  for (int i = 0; i < 50; ++i) a.offer("hot", 10, 0);
  for (int i = 0; i < 60; ++i) b.offer("hot", 10, 0);
  for (int i = 0; i < 40; ++i) b.offer("warm", 10, 1);
  a.merge(b);
  EXPECT_EQ(a.total_bytes(), 1500u);
  EXPECT_EQ(a.offered_kvs(), 150u);
  EXPECT_EQ(a.dest_bytes()[0], 1100u);
  EXPECT_EQ(a.dest_bytes()[1], 400u);
  ASSERT_TRUE(a.heavy().contains("hot"));
  ASSERT_TRUE(a.heavy().contains("warm"));
  EXPECT_EQ(a.heavy().find("hot")->second.bytes, 1100u);
}

TEST(BalanceSketch, IdenticalStreamsSerializeIdentically) {
  const auto build = [] {
    KeyFreqSketch sketch(4, 16, 4);
    for (int i = 0; i < 500; ++i) {
      sketch.offer(std::string("k").append(std::to_string((i * 31) % 41)),
                   6 + i % 7, i % 4);
    }
    return sketch.serialize();
  };
  EXPECT_EQ(build(), build());
}

// --- planner --------------------------------------------------------------

KeyFreqSketch merged_skewed_sketch(int nranks) {
  KeyFreqSketch merged(16, 64, nranks);
  for (int r = 0; r < nranks; ++r) {
    KeyFreqSketch local(16, 64, nranks);
    for (int i = 0; i < 1000; ++i) {
      local.offer("hot", 12,
                  static_cast<int>(mutil::hash_bytes("hot") %
                                   static_cast<std::uint64_t>(nranks)));
    }
    for (int i = 0; i < 300; ++i) {
      const std::string key =
          std::string("w").append(std::to_string((i * 13 + r) % 59));
      local.offer(key, 12,
                  static_cast<int>(mutil::hash_bytes(key) %
                                   static_cast<std::uint64_t>(nranks)));
    }
    merged.merge(local);
  }
  return merged;
}

TEST(BalancePlan, RepeatedBuildsProduceIdenticalPlans) {
  Options opts;
  opts.enabled = true;
  const KeyFreqSketch merged = merged_skewed_sketch(4);
  const Plan first = balance::build_plan(merged, 4, opts);
  ASSERT_FALSE(first.empty());
  for (int run = 0; run < 3; ++run) {
    const Plan again =
        balance::build_plan(merged_skewed_sketch(4), 4, opts);
    EXPECT_EQ(again.fingerprint(), first.fingerprint());
    EXPECT_EQ(again.size(), first.size());
    EXPECT_EQ(again.split_keys(), first.split_keys());
  }
}

TEST(BalancePlan, KeyToRankContractHoldsAcrossRankCounts) {
  Options opts;
  opts.enabled = true;
  for (const int nranks : {2, 4, 8}) {
    const Plan plan =
        balance::build_plan(merged_skewed_sketch(nranks), nranks, opts);
    ASSERT_FALSE(plan.empty()) << nranks << " ranks";
    for (const auto& [key, entry] : plan.entries()) {
      ASSERT_FALSE(entry.ranks.empty());
      std::vector<char> seen(static_cast<std::size_t>(nranks), 0);
      for (const int r : entry.ranks) {
        ASSERT_GE(r, 0) << key;
        ASSERT_LT(r, nranks) << key;
        EXPECT_FALSE(seen[static_cast<std::size_t>(r)])
            << "duplicate share rank for " << key;
        seen[static_cast<std::size_t>(r)] = 1;
      }
      // Every sender's routed destination stays in range and inside
      // the entry's share set.
      for (int sender = 0; sender < nranks; ++sender) {
        const int dest = plan.route(key, /*fallback=*/-1, sender);
        EXPECT_GE(dest, 0);
        EXPECT_LT(dest, nranks);
      }
    }
    // Tail keys fall back to the partitioner destination.
    EXPECT_EQ(plan.route("definitely-not-planned", 1, 0), 1);
  }
}

TEST(BalancePlan, SplitKeySpreadsSendersOverShares) {
  Options opts;
  opts.enabled = true;
  opts.max_splits = 4;
  const Plan plan = balance::build_plan(merged_skewed_sketch(8), 8, opts);
  ASSERT_TRUE(plan.planned("hot"));
  const auto& shares = plan.entries().find("hot")->second.ranks;
  ASSERT_GT(shares.size(), 1u);  // the hot key dwarfs the target
  EXPECT_LE(shares.size(), opts.max_splits);
  // Round-robin over senders touches every share.
  std::vector<char> hit(8, 0);
  for (int sender = 0; sender < 8; ++sender) {
    hit[static_cast<std::size_t>(plan.route("hot", -1, sender))] = 1;
  }
  for (const int r : shares) {
    EXPECT_TRUE(hit[static_cast<std::size_t>(r)]);
  }
}

TEST(BalancePlan, HashAlignedSingletonIsDropped) {
  // One heavy key, no tail, splitting disabled: the greedy packer puts
  // it on the least-loaded rank. When that is also its hash home the
  // entry must be dropped (routing would not change).
  Options opts;
  opts.enabled = true;
  opts.allow_split = false;
  std::string key = "k0";
  for (int i = 1; mutil::hash_bytes(key) % 2 != 0; ++i) {
    key = "k" + std::to_string(i);  // find a key whose hash home is 0
  }
  KeyFreqSketch merged(4, 16, 2);
  for (int i = 0; i < 100; ++i) {
    merged.offer(key, 10, static_cast<int>(mutil::hash_bytes(key) % 2));
  }
  const Plan plan = balance::build_plan(merged, 2, opts);
  EXPECT_TRUE(plan.empty());
}

TEST(BalancePlan, DegenerateInputsYieldEmptyPlans) {
  Options opts;
  opts.enabled = true;
  EXPECT_TRUE(balance::build_plan(KeyFreqSketch(4, 16, 1), 1, opts).empty());
  EXPECT_TRUE(
      balance::build_plan(merged_skewed_sketch(4), 1, opts).empty());
  EXPECT_TRUE(balance::build_plan(KeyFreqSketch(4, 16, 4), 4, opts).empty());
}

TEST(BalanceOptions, ConfigKeysParseAndValidate) {
  const auto cfg = mutil::Config::from_args(
      {"mimir.balance=1", "mimir.balance.sketch_capacity=16",
       "mimir.balance.reservoir_capacity=32", "mimir.balance.split=0",
       "mimir.balance.max_splits=2", "mimir.balance.split_threshold=2.5"});
  const Options opts = Options::from(cfg);
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.sketch_capacity, 16u);
  EXPECT_EQ(opts.reservoir_capacity, 32u);
  EXPECT_FALSE(opts.allow_split);
  EXPECT_EQ(opts.max_splits, 2u);
  EXPECT_DOUBLE_EQ(opts.split_threshold, 2.5);

  EXPECT_FALSE(Options::from(mutil::Config{}).enabled);
  EXPECT_THROW(Options::from(mutil::Config::from_args(
                   {"mimir.balance.sketch_capacity=0"})),
               mutil::ConfigError);
  EXPECT_THROW(
      Options::from(mutil::Config::from_args({"mimir.balance.max_splits=0"})),
      mutil::ConfigError);
  EXPECT_THROW(Options::from(mutil::Config::from_args(
                   {"mimir.balance.split_threshold=0"})),
               mutil::ConfigError);
}

// --- balancer + shuffle ---------------------------------------------------

TEST(BalancerShuffle, PlanInstallsOnceAndObserverSeesOnePlanPerRank) {
  constexpr int kRanks = 4;
  std::mutex mutex;
  std::vector<std::uint64_t> fingerprints;
  simmpi::run_test(kRanks, [&](Context& ctx) {
    Options opts;
    opts.enabled = true;
    Balancer balancer(opts, ctx.size());
    balancer.on_plan = [&](const Plan& plan) {
      const std::scoped_lock lock(mutex);
      fingerprints.push_back(plan.fingerprint());
    };
    KVContainer dest(ctx.tracker, 4096);
    Shuffle shuffle(ctx, 1024, {}, dest, {}, false, &balancer);
    constexpr std::uint64_t kOne = 1;
    for (int i = 0; i < 1500; ++i) {
      shuffle.emit("hot", mimir::as_view(kOne));
    }
    for (int i = 0; i < 300; ++i) {
      shuffle.emit(
          std::string("w").append(std::to_string((i * 13 + ctx.rank()) % 59)),
          mimir::as_view(kOne));
    }
    shuffle.finalize();
    EXPECT_TRUE(balancer.planned());
    EXPECT_FALSE(balancer.plan().empty());
    // Received keys are either hash-owned or a planned share of ours.
    dest.scan([&](const KVView& kv) {
      const bool hash_owned =
          mutil::hash_bytes(kv.key) %
              static_cast<std::uint64_t>(ctx.size()) ==
          static_cast<std::uint64_t>(ctx.rank());
      EXPECT_TRUE(hash_owned || balancer.is_planned_key(kv.key))
          << std::string(kv.key);
    });
    const auto total =
        ctx.comm.allreduce_u64(dest.num_kvs(), simmpi::Op::kSum);
    EXPECT_EQ(total, (1500u + 300u) * kRanks);
  });
  // One install per rank, all with the identical plan.
  ASSERT_EQ(fingerprints.size(), static_cast<std::size_t>(kRanks));
  for (const std::uint64_t fp : fingerprints) {
    EXPECT_EQ(fp, fingerprints[0]);
  }
}

TEST(BalancerShuffle, OverlappedShuffleExchangesThePlanToo) {
  simmpi::run_test(4, [](Context& ctx) {
    Options opts;
    opts.enabled = true;
    Balancer balancer(opts, ctx.size());
    KVContainer dest(ctx.tracker, 4096);
    Shuffle shuffle(ctx, 1024, {}, dest, {}, /*overlap=*/true, &balancer);
    constexpr std::uint64_t kOne = 1;
    for (int i = 0; i < 1500; ++i) {
      shuffle.emit("hot", mimir::as_view(kOne));
    }
    shuffle.finalize();
    EXPECT_TRUE(balancer.planned());
    const auto total =
        ctx.comm.allreduce_u64(dest.num_kvs(), simmpi::Op::kSum);
    EXPECT_EQ(total, 1500u * 4u);
  });
}

// --- whole-job bit-identity and placement ---------------------------------

/// Run the skewed workload through a full map+reduce job and merge the
/// output across ranks; optionally audits intermediate placement and
/// collects the per-rank plan fingerprints.
std::map<std::string, std::uint64_t> run_skewed_job(
    int nranks, bool balance_on, bool with_combiner,
    std::vector<std::uint64_t>* plan_fps = nullptr,
    stats::Collector* collector = nullptr, check::JobChecker* checker = nullptr) {
  std::mutex mutex;
  std::map<std::string, std::uint64_t> counts;
  simmpi::run_test(
      nranks,
      [&](Context& ctx) {
        JobConfig cfg;
        cfg.page_size = 4096;
        cfg.comm_buffer = 1024;  // small: several exchange rounds
        cfg.balance.enabled = balance_on;
        Job job(ctx, cfg);
        const int rank = ctx.rank();
        const auto produce = [rank](Emitter& out) {
          skewed_produce(rank, out);
        };
        if (with_combiner) {
          job.map_custom(produce, sum_combine);
        } else {
          job.map_custom(produce);
        }
        // Placement contract: the merge pass re-homes planned keys, so
        // intermediate placement matches hash routing exactly — the
        // same audit the plain shuffle passes.
        job.intermediate().scan([&](const KVView& kv) {
          EXPECT_EQ(mutil::hash_bytes(kv.key) %
                        static_cast<std::uint64_t>(ctx.size()),
                    static_cast<std::uint64_t>(ctx.rank()))
              << std::string(kv.key);
        });
        if (balance_on) {
          ASSERT_NE(job.balancer(), nullptr);
          EXPECT_TRUE(job.balancer()->planned());
          if (plan_fps != nullptr) {
            const std::scoped_lock lock(mutex);
            plan_fps->push_back(job.balancer()->plan().fingerprint());
          }
        } else {
          EXPECT_EQ(job.balancer(), nullptr);
        }
        job.reduce(sum_reduce);
        std::map<std::string, std::uint64_t> mine;
        job.output().scan([&](const KVView& kv) {
          mine[std::string(kv.key)] += mimir::as_u64(kv.value);
        });
        const std::scoped_lock lock(mutex);
        for (const auto& [key, value] : mine) counts[key] += value;
      },
      collector, checker);
  return counts;
}

class BalanceBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BalanceBitIdentity, ResultsMatchHashRoutingAcrossRankCounts) {
  const int nranks = GetParam();
  for (const bool with_combiner : {false, true}) {
    const auto baseline = run_skewed_job(nranks, false, with_combiner);
    std::vector<std::uint64_t> fps;
    const auto balanced = run_skewed_job(nranks, true, with_combiner, &fps);
    EXPECT_EQ(balanced, baseline) << nranks << " ranks, combiner="
                                  << with_combiner;
    EXPECT_EQ(baseline.at("hot"),
              1200u * static_cast<std::uint64_t>(nranks));
    // All ranks installed the identical plan.
    ASSERT_EQ(fps.size(), static_cast<std::size_t>(nranks));
    for (const std::uint64_t fp : fps) EXPECT_EQ(fp, fps[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, BalanceBitIdentity,
                         ::testing::Values(2, 4, 8));

TEST(BalanceJob, PlansAreIdenticalAcrossRepeatedRuns) {
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  run_skewed_job(4, true, true, &first);
  run_skewed_job(4, true, true, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(BalanceJob, CountersAndImbalanceLandInTheSummary) {
  stats::Collector collector;
  std::vector<std::uint64_t> fps;
  run_skewed_job(4, true, true, &fps, &collector);
  const stats::Summary summary = collector.summary();
  EXPECT_GT(summary.counters.at("balance.sampled_kvs"), 0u);
  EXPECT_GT(summary.counters.at("balance.plan_keys"), 0u);
  EXPECT_GT(summary.counters.at("balance.merge_kvs"), 0u);
  ASSERT_EQ(summary.recv_per_rank.size(), 4u);
  std::uint64_t recv_total = 0;
  for (const std::uint64_t r : summary.recv_per_rank) recv_total += r;
  EXPECT_GT(recv_total, 0u);
  EXPECT_GE(summary.recv_imbalance, 1.0);
}

// --- mimir-race -----------------------------------------------------------

TEST(BalanceRace, SamplerAndPlanExchangeAreRaceFree) {
  Report report;
  JobChecker checker(report, race_config());
  const auto counts = run_skewed_job(4, true, true, nullptr, nullptr,
                                     &checker);
  EXPECT_TRUE(report.empty()) << report.text();
  EXPECT_EQ(counts.at("hot"), 1200u * 4u);
}

TEST(BalanceRace, DeterminismDigestsMatchAcrossRuns) {
  Report report_a;
  JobChecker checker_a(report_a, race_config());
  run_skewed_job(4, true, false, nullptr, nullptr, &checker_a);
  const check::DeterminismDigest first = check::determinism_digest(checker_a);

  Report report_b;
  JobChecker checker_b(report_b, race_config());
  run_skewed_job(4, true, false, nullptr, nullptr, &checker_b);
  const check::DeterminismDigest second = check::determinism_digest(checker_b);

  EXPECT_TRUE(report_a.empty()) << report_a.text();
  EXPECT_TRUE(report_b.empty()) << report_b.text();
  EXPECT_EQ(check::compare_digests(first, second), std::nullopt);
}

// --- fault injection + recovery -------------------------------------------

constexpr int kRecoveryRanks = 3;

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

mimir::RecoveryJob balanced_job(OutputSink& sink) {
  mimir::RecoveryJob spec;
  JobConfig cfg;
  cfg.page_size = 4096;
  cfg.comm_buffer = 1024;
  cfg.balance.enabled = true;
  spec.config = cfg;
  spec.map = [](Job& job) {
    const int rank = job.context().rank();
    job.map_custom([rank](Emitter& out) { skewed_produce(rank, out); },
                   sum_combine);
  };
  spec.finish = [&sink](Job& job) {
    job.reduce(sum_reduce);
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

class BalanceRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(BalanceRecovery, CrashAtBalancePhaseRetriesToIdenticalResults) {
  const auto machine = profile_with_io();
  const FaultPlan plan = FaultPlan::parse(GetParam());

  // Reference: same balanced job, no faults.
  OutputSink expected;
  {
    pfs::FileSystem fs(machine, kRecoveryRanks);
    const auto out = mimir::run_with_recovery(kRecoveryRanks, machine, fs,
                                              balanced_job(expected));
    EXPECT_EQ(out.attempts, 1);
  }

  OutputSink sink;
  pfs::FileSystem fs(machine, kRecoveryRanks);
  const mimir::RecoveryOutcome out = mimir::run_with_recovery(
      kRecoveryRanks, machine, fs, balanced_job(sink), {}, &plan);
  // Both balance phase points sit inside the map, before the post-map
  // checkpoint: the retry restarts the map from scratch.
  EXPECT_EQ(out.attempts, 2);
  EXPECT_FALSE(out.resumed);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].ok);
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_EQ(sink.merged(), expected.merged());
  EXPECT_EQ(sink.merged().at("hot"),
            1200u * static_cast<std::uint64_t>(kRecoveryRanks));
}

INSTANTIATE_TEST_SUITE_P(Phases, BalanceRecovery,
                         ::testing::Values("rank_crash:1@balance.plan",
                                           "rank_crash:2@balance.merge"));

TEST(BalanceRecovery, FaultFreeInjectionKeepsResultsIdentical) {
  // An armed injector with no matching clause must not perturb the
  // balanced job (the inject layer's bit-identity contract).
  const auto machine = profile_with_io();
  OutputSink plain;
  {
    pfs::FileSystem fs(machine, kRecoveryRanks);
    (void)mimir::run_with_recovery(kRecoveryRanks, machine, fs,
                                   balanced_job(plain));
  }
  const FaultPlan plan = FaultPlan::parse("rank_crash:1@nonexistent_phase");
  OutputSink armed;
  pfs::FileSystem fs(machine, kRecoveryRanks);
  const auto out = mimir::run_with_recovery(kRecoveryRanks, machine, fs,
                                            balanced_job(armed), {}, &plan);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(armed.merged(), plain.merged());
}

}  // namespace
