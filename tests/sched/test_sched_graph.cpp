// Planner and executor semantics of the dataflow scheduler.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "inject/fault.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"

namespace {

using sched::Graph;
using sched::GraphOptions;
using sched::JobNode;
using sched::NodeCtx;
using sched::Plan;

simtime::MachineProfile profile_with_io() {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  return machine;
}

// --- graph validation ----------------------------------------------------

TEST(SchedGraph, RejectsBadEdges) {
  Graph g;
  const int a = g.add({});
  const int b = g.add({});
  EXPECT_THROW(g.add_edge(a, a), mutil::UsageError);
  EXPECT_THROW(g.add_edge(a, 7), mutil::UsageError);
  EXPECT_THROW(g.add_edge(-1, b), mutil::UsageError);
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), mutil::UsageError) << "duplicate data edge";
  EXPECT_THROW(g.add_order(b, b), mutil::UsageError);
  EXPECT_EQ(g.data_consumers(a), 1);
  EXPECT_EQ(g.inputs(b), std::vector<int>{a});
}

TEST(SchedGraph, TopoOrderDetectsCycles) {
  Graph g;
  const int a = g.add({});
  const int b = g.add({});
  const int c = g.add({});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_order(c, a);
  EXPECT_THROW(g.topo_order(), mutil::UsageError);
}

TEST(SchedGraph, TopoOrderPrefersSmallestReadyId) {
  // Diamond with inverted insertion: 0 -> {2, 1} -> 3.
  Graph g;
  const int src = g.add({});
  const int right = g.add({});
  const int left = g.add({});
  const int sink = g.add({});
  g.add_edge(src, left);
  g.add_edge(src, right);
  g.add_edge(left, sink);
  g.add_edge(right, sink);
  EXPECT_EQ(g.topo_order(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedGraph, ComponentsNormalizedByFirstAppearance) {
  Graph g;
  (void)g.add({});  // isolated node 0
  const int b = g.add({});
  const int c = g.add({});
  (void)g.add({});  // isolated node 3
  g.add_edge(b, c);
  EXPECT_EQ(g.components(), (std::vector<int>{0, 1, 1, 2}));
}

// --- planning ------------------------------------------------------------

Graph two_chains(std::uint64_t estimate) {
  Graph g;
  JobNode node;
  node.peak_estimate = estimate;
  const int a0 = g.add(node);
  const int a1 = g.add(node);
  const int b0 = g.add(node);
  const int b1 = g.add(node);
  g.add_edge(a0, a1);
  g.add_edge(b0, b1);
  return g;
}

TEST(SchedPlan, SequentialDefaultIsOneWaveOverTheWorld) {
  const Graph g = two_chains(1 << 20);
  const auto machine = profile_with_io();
  GraphOptions opts;  // max_concurrency = 1
  const Plan plan = sched::plan_graph(g, 4, machine, opts);
  ASSERT_EQ(plan.waves.size(), 1u);
  ASSERT_EQ(plan.waves[0].groups.size(), 1u);
  EXPECT_EQ(plan.waves[0].groups[0].rank_begin, 0);
  EXPECT_EQ(plan.waves[0].groups[0].rank_end, 4);
  EXPECT_EQ(plan.waves[0].groups[0].nodes.size(), 4u);
  EXPECT_EQ(plan.queued_nodes, 0);
  EXPECT_EQ(plan.degraded_nodes, 0);
}

TEST(SchedPlan, PacksIndependentChainsUnderBudget) {
  const Graph g = two_chains(4ull << 20);
  const auto machine = profile_with_io();
  GraphOptions opts;
  opts.max_concurrency = 2;
  opts.memory_budget = 16ull << 20;
  const Plan plan = sched::plan_graph(g, 4, machine, opts);
  ASSERT_EQ(plan.waves.size(), 1u);
  ASSERT_EQ(plan.waves[0].groups.size(), 2u);
  EXPECT_EQ(plan.waves[0].groups[0].rank_begin, 0);
  EXPECT_EQ(plan.waves[0].groups[0].rank_end, 2);
  EXPECT_EQ(plan.waves[0].groups[1].rank_begin, 2);
  EXPECT_EQ(plan.waves[0].groups[1].rank_end, 4);
  EXPECT_EQ(plan.queued_nodes, 0);
}

TEST(SchedPlan, QueuesComponentPastBudgetToLaterWave) {
  const Graph g = two_chains(4ull << 20);
  const auto machine = profile_with_io();
  GraphOptions opts;
  opts.max_concurrency = 2;
  opts.memory_budget = 5ull << 20;  // fits one chain, not two
  const Plan plan = sched::plan_graph(g, 4, machine, opts);
  ASSERT_EQ(plan.waves.size(), 2u);
  EXPECT_EQ(plan.waves[0].groups.size(), 1u);
  EXPECT_EQ(plan.waves[1].groups.size(), 1u);
  EXPECT_EQ(plan.queued_nodes, 2);
  // A single-group wave spans the whole world again.
  EXPECT_EQ(plan.waves[1].groups[0].rank_begin, 0);
  EXPECT_EQ(plan.waves[1].groups[0].rank_end, 4);
}

TEST(SchedPlan, DegradesNodeWiderThanTheBudget) {
  Graph g;
  JobNode node;
  node.peak_estimate = 64ull << 20;
  node.config.page_size = 64 << 10;
  (void)g.add(node);
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;
  GraphOptions opts;
  opts.memory_budget = 1ull << 20;
  const Plan plan = sched::plan_graph(g, 4, machine, opts);
  EXPECT_EQ(plan.degraded_nodes, 1);
  ASSERT_EQ(plan.live_bytes.size(), 1u);
  // Ladder: budget/rpn = 512K, halved once -> 256K (projected 2*l*rpn
  // = 1M fits the budget).
  EXPECT_EQ(plan.live_bytes[0], 256u << 10);
  EXPECT_TRUE(plan.degraded[0]);
}

TEST(SchedPlan, OptionsParseFromConfig) {
  mutil::Config cfg;
  cfg.set("mimir.sched.memory_budget", "2M");
  cfg.set("mimir.sched.max_concurrency", "3");
  cfg.set("mimir.sched.checkpoint", "true");
  cfg.set("mimir.sched.checkpoint_prefix", "pipe");
  cfg.set("mimir.sched.keep_checkpoints", "true");
  const GraphOptions opts = GraphOptions::from(cfg);
  EXPECT_EQ(opts.memory_budget, 2u << 20);
  EXPECT_EQ(opts.max_concurrency, 3);
  EXPECT_TRUE(opts.checkpoint);
  EXPECT_EQ(opts.checkpoint_prefix, "pipe");
  EXPECT_TRUE(opts.keep_checkpoints);

  mutil::Config bad;
  bad.set("mimir.sched.max_concurrency", "0");
  EXPECT_THROW(GraphOptions::from(bad), mutil::ConfigError);
}

// --- execution -----------------------------------------------------------

std::string_view u64_view(const std::uint64_t& v) {
  return {reinterpret_cast<const char*>(&v), 8};
}

/// Collects per-rank sink outputs across rank threads.
struct Sink {
  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> merged;

  void add(mimir::KVContainer& out) {
    const std::scoped_lock lock(mutex);
    out.scan([&](const mimir::KVView& kv) {
      merged[mimir::as_u64(kv.key)] += mimir::as_u64(kv.value);
    });
  }
};

TEST(SchedExec, DataEdgesHandContainersThroughTheChain) {
  // produce -> double -> sink: 3-node chain, each stage transforms.
  Graph g;
  JobNode produce;
  produce.name = "produce";
  produce.producer = [](NodeCtx& nctx, mimir::Emitter& out) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      if (static_cast<int>(i % static_cast<std::uint64_t>(
                               nctx.exec.size())) != nctx.exec.rank()) {
        continue;
      }
      out.emit(u64_view(i % 10), std::uint64_t{1});
    }
  };
  JobNode twice;
  twice.name = "twice";
  twice.kv_map = [](NodeCtx&, std::string_view key, std::string_view value,
                    mimir::Emitter& out) {
    out.emit(key, mimir::as_u64(value) * 2);
  };
  JobNode total;
  total.name = "total";
  total.partial = [](std::string_view, std::string_view a,
                     std::string_view b, std::string& out) {
    out.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
  };
  auto sink = std::make_shared<Sink>();
  total.consume = [sink](NodeCtx&, mimir::KVContainer& out) {
    sink->add(out);
  };

  const int a = g.add(produce);
  const int b = g.add(twice);
  const int c = g.add(total);
  g.add_edge(a, b);
  g.add_edge(b, c);

  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, 4);
  const auto outcome = sched::run_graph(4, machine, fs, g, {});
  EXPECT_EQ(outcome.jobs(), 3);
  EXPECT_EQ(outcome.waves(), 1u);
  ASSERT_EQ(sink->merged.size(), 10u);
  for (const auto& [key, value] : sink->merged) {
    EXPECT_EQ(value, 20u) << "key " << key;
  }
}

TEST(SchedExec, FanOutScansForAllButTheLastReader) {
  // One producer feeding two consumers: the first consumer must see the
  // full container (scan), the second takes it by move.
  Graph g;
  JobNode produce;
  produce.producer = [](NodeCtx& nctx, mimir::Emitter& out) {
    if (nctx.exec.rank() == 0) {
      for (std::uint64_t i = 0; i < 50; ++i) out.emit(u64_view(i), i);
    }
  };
  auto seen = std::make_shared<std::atomic<std::uint64_t>>(0);
  JobNode read1, read2;
  read1.kv_map = read2.kv_map =
      [seen](NodeCtx&, std::string_view key, std::string_view,
             mimir::Emitter& out) {
        seen->fetch_add(1, std::memory_order_relaxed);
        out.emit(key, std::uint64_t{1});
      };
  const int a = g.add(produce);
  const int b = g.add(read1);
  const int c = g.add(read2);
  g.add_edge(a, b);
  g.add_edge(a, c);

  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, 2);
  (void)sched::run_graph(2, machine, fs, g, {});
  EXPECT_EQ(seen->load(), 100u) << "both consumers see all 50 KVs";
}

/// Two independent branches whose peak is dominated by an explicit
/// tracker charge, for deterministic admission arithmetic.
Graph two_allocating_branches(std::uint64_t bytes_per_rank,
                              std::uint64_t estimate,
                              std::shared_ptr<Sink> sink) {
  Graph g;
  for (int branch = 0; branch < 2; ++branch) {
    JobNode work;
    work.name = "branch" + std::to_string(branch);
    work.peak_estimate = estimate;
    work.producer = [bytes_per_rank](NodeCtx& nctx, mimir::Emitter& out) {
      nctx.exec.tracker.allocate(bytes_per_rank);
      for (std::uint64_t i = 0; i < 32; ++i) {
        out.emit(u64_view(i), std::uint64_t{1});
      }
    };
    work.partial = [](std::string_view, std::string_view a,
                      std::string_view b, std::string& out) {
      out.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
    };
    work.consume = [bytes_per_rank, sink](NodeCtx& nctx,
                                          mimir::KVContainer& out) {
      sink->add(out);
      nctx.exec.tracker.release(bytes_per_rank);
    };
    (void)g.add(work);
  }
  return g;
}

TEST(SchedExec, ConcurrentBranchesStayUnderTheConfiguredBudget) {
  constexpr std::uint64_t kPerRank = 1u << 20;
  constexpr std::uint64_t kEstimate = 4u << 20;  // per-rank charge + slack
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;

  auto sink = std::make_shared<Sink>();
  const Graph g = two_allocating_branches(kPerRank, kEstimate, sink);
  GraphOptions opts;
  opts.max_concurrency = 2;
  opts.memory_budget = 16ull << 20;

  pfs::FileSystem fs(machine, 4);
  const auto outcome = sched::run_graph(4, machine, fs, g, opts);
  EXPECT_EQ(outcome.waves(), 1u) << "both branches admitted concurrently";
  ASSERT_EQ(outcome.plan.waves[0].groups.size(), 2u);
  EXPECT_LE(outcome.stats.node_peak, opts.memory_budget);
  EXPECT_EQ(outcome.admitted(), 2);
  ASSERT_EQ(sink->merged.size(), 32u);
  for (const auto& [key, value] : sink->merged) {
    EXPECT_EQ(value, 4u) << "2 branches x 2 ranks each emit key " << key;
  }
}

TEST(SchedExec, OversubscriptionQueuesAndPeakStaysBounded) {
  constexpr std::uint64_t kPerRank = 1u << 20;
  constexpr std::uint64_t kEstimate = 4u << 20;
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;

  auto sink = std::make_shared<Sink>();
  const Graph g = two_allocating_branches(kPerRank, kEstimate, sink);
  GraphOptions opts;
  opts.max_concurrency = 2;
  opts.memory_budget = 6ull << 20;  // admits one branch per wave

  pfs::FileSystem fs(machine, 4);
  const auto outcome = sched::run_graph(4, machine, fs, g, opts);
  EXPECT_EQ(outcome.waves(), 2u);
  EXPECT_EQ(outcome.plan.queued_nodes, 1);
  EXPECT_EQ(outcome.admitted(), 1);
  EXPECT_LE(outcome.stats.node_peak, opts.memory_budget);
  for (const auto& [key, value] : sink->merged) {
    EXPECT_EQ(value, 8u) << "single-group waves span all 4 ranks";
  }
}

// --- recovery over the graph ----------------------------------------------

void sum_reduce(std::string_view key, mimir::ValueReader& values,
                mimir::Emitter& out) {
  std::uint64_t total = 0;
  std::string_view v;
  while (values.next(v)) total += mimir::as_u64(v);
  out.emit(key, total);
}

/// A 3-node chain where only the sink has a reduce phase, so a
/// "@reduce" fault fires mid-graph — after the ancestors completed and
/// checkpointed. Producer-call counters prove ancestors don't re-run.
struct CountedChain {
  Graph graph;
  std::shared_ptr<std::atomic<int>> head_calls;
  std::shared_ptr<std::atomic<int>> mid_calls;
  std::shared_ptr<Sink> sink;
};

CountedChain counted_chain() {
  CountedChain c;
  c.head_calls = std::make_shared<std::atomic<int>>(0);
  c.mid_calls = std::make_shared<std::atomic<int>>(0);
  c.sink = std::make_shared<Sink>();

  JobNode head;
  head.name = "head";
  auto head_calls = c.head_calls;
  head.producer = [head_calls](NodeCtx& nctx, mimir::Emitter& out) {
    head_calls->fetch_add(1);
    for (int i = 0; i < 200; ++i) {
      if (i % nctx.exec.size() != nctx.exec.rank()) continue;
      out.emit(u64_view(static_cast<std::uint64_t>(i % 23)),
               std::uint64_t{1});
    }
  };

  JobNode mid;
  mid.name = "mid";
  auto mid_calls = c.mid_calls;
  mid.producer = [mid_calls](NodeCtx&, mimir::Emitter&) {
    mid_calls->fetch_add(1);
  };
  mid.kv_map = [](NodeCtx&, std::string_view key, std::string_view value,
                  mimir::Emitter& out) {
    out.emit(key, mimir::as_u64(value) * 3);
  };

  JobNode tail;
  tail.name = "tail";
  tail.reduce = sum_reduce;
  auto sink = c.sink;
  tail.consume = [sink](NodeCtx&, mimir::KVContainer& out) {
    sink->add(out);
  };

  const int a = c.graph.add(head);
  const int b = c.graph.add(mid);
  const int d = c.graph.add(tail);
  c.graph.add_edge(a, b);
  c.graph.add_edge(b, d);
  return c;
}

TEST(SchedRecovery, NodeCrashMidGraphResumesWithoutRerunningAncestors) {
  constexpr int kRanks = 4;
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;

  // Undisturbed reference.
  std::map<std::uint64_t, std::uint64_t> expected;
  {
    CountedChain ref = counted_chain();
    pfs::FileSystem fs(machine, kRanks);
    (void)sched::run_graph_with_recovery(kRanks, machine, fs, ref.graph,
                                         {}, {});
    expected = ref.sink->merged;
    EXPECT_EQ(ref.head_calls->load(), kRanks);
  }
  ASSERT_EQ(expected.size(), 23u);

  // Lose a whole node when the tail enters its reduce. The head and mid
  // nodes are checkpointed; the retry must restore their outputs rather
  // than call their producers again.
  const inject::FaultPlan plan =
      inject::FaultPlan::parse("node_crash:1@reduce");
  CountedChain c = counted_chain();
  pfs::FileSystem fs(machine, kRanks);
  check::Report report;
  check::JobChecker checker(report);
  const auto outcome = sched::run_graph_with_recovery(
      kRanks, machine, fs, c.graph, {}, {}, &plan, nullptr, &checker);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_TRUE(outcome.resumed);
  EXPECT_EQ(outcome.resumed_nodes, 2u) << "head and mid restore";
  EXPECT_EQ(c.head_calls->load(), kRanks)
      << "completed ancestors never re-run";
  EXPECT_EQ(c.mid_calls->load(), kRanks);
  EXPECT_EQ(c.sink->merged, expected);
  ASSERT_EQ(outcome.history.size(), 2u);
  EXPECT_FALSE(outcome.history[0].ok);
  const int failed = outcome.history[0].failed_rank;
  EXPECT_TRUE(failed == 2 || failed == 3)
      << "node 1 hosts ranks 2 and 3, got " << failed;
  EXPECT_EQ(report.count("attempt-failed"), 1u);
  // Throwaway checkpoints are swept after success.
  EXPECT_TRUE(fs.list("ckpt/").empty());
}

TEST(SchedRecovery, OomRetryStartsPastTheFailedAttempt) {
  // One rank per node: each rank's spike overruns its own node budget
  // in the tail's reduce. The retry starts past the failed attempt's
  // simulated time and cannot finish before a fault-free run.
  constexpr int kRanks = 2;
  auto machine = profile_with_io();
  machine.ranks_per_node = 1;
  machine.node_memory = 1 << 20;
  machine.kv_rate = 1e4;
  machine.map_rate = 1e4;
  const auto run = [&machine](const inject::FaultPlan* plan) {
    CountedChain c = counted_chain();
    pfs::FileSystem fs(machine, kRanks);
    return sched::run_graph_with_recovery(kRanks, machine, fs, c.graph, {},
                                          {}, plan);
  };
  const sched::GraphOutcome clean = run(nullptr);
  const inject::FaultPlan plan =
      inject::FaultPlan::parse("mem_spike:2M@reduce");
  const sched::GraphOutcome out = run(&plan);
  ASSERT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.degraded);
  EXPECT_GT(out.history[0].failed_time, 0.0);
  EXPECT_GE(out.stats.sim_time,
            out.history[0].failed_time + out.history[0].backoff);
  EXPECT_GT(out.stats.sim_time, clean.stats.sim_time);
}

TEST(SchedRecovery, InvalidPolicyIsRejectedBeforeTheFirstAttempt) {
  const auto machine = profile_with_io();
  const inject::FaultPlan plan =
      inject::FaultPlan::parse("rank_crash:0@reduce");
  std::vector<mimir::RecoveryPolicy> policies(4);
  policies[0].max_attempts = 0;
  policies[1].backoff_base = -1.0;
  policies[2].backoff_base = std::numeric_limits<double>::quiet_NaN();
  policies[3].backoff_factor = 0.5;
  for (const mimir::RecoveryPolicy& policy : policies) {
    CountedChain c = counted_chain();
    pfs::FileSystem fs(machine, 2);
    EXPECT_THROW((void)sched::run_graph_with_recovery(2, machine, fs, c.graph,
                                                      {}, policy, &plan),
                 mutil::UsageError);
    EXPECT_EQ(c.head_calls->load(), 0) << "no attempt may run";
  }
}

TEST(SchedRecovery, UsageErrorsAreNotRetried) {
  Graph g;
  JobNode node;
  node.producer = [](NodeCtx&, mimir::Emitter&) {
    throw mutil::UsageError("caller bug");
  };
  (void)g.add(node);
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, 2);
  EXPECT_THROW(
      (void)sched::run_graph_with_recovery(2, machine, fs, g, {}, {}),
      mutil::UsageError);
}

TEST(SchedRecovery, RetriesExhaustedRethrowsWithDiagnostics) {
  const inject::FaultPlan plan =
      inject::FaultPlan::parse("rank_crash:0@map#1,rank_crash:0@map#2");
  mimir::RecoveryPolicy policy;
  policy.max_attempts = 2;

  Graph g;
  JobNode node;
  node.producer = [](NodeCtx&, mimir::Emitter& out) {
    out.emit("k", std::uint64_t{1});
  };
  (void)g.add(node);

  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, 2);
  check::Report report;
  check::JobChecker checker(report);
  EXPECT_THROW((void)sched::run_graph_with_recovery(
                   2, machine, fs, g, {}, policy, &plan, nullptr, &checker),
               mutil::RankFailedError);
  EXPECT_EQ(report.count("attempt-failed"), 1u);
  EXPECT_EQ(report.count("retries-exhausted"), 1u);
}

}  // namespace
