// Iterative applications through the dataflow scheduler must be
// bit-identical to the hand-rolled job loops they replace: same
// results, same simulated clock (the cost-model charges and collective
// sequence match exactly).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/kmeans.hpp"
#include "apps/pagerank.hpp"
#include "check/checker.hpp"
#include "inject/fault.hpp"
#include "mutil/error.hpp"
#include "sched/scheduler.hpp"

namespace {

simtime::MachineProfile profile_with_io() {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  return machine;
}

// --- pagerank + top-k ----------------------------------------------------

struct AppCase {
  bool hint;
  bool cps;
  int ranks;
  const char* name;
};

apps::pr::RunOptions pr_options(const AppCase& c) {
  apps::pr::RunOptions opts;
  opts.scale = 7;
  opts.edge_factor = 8;
  opts.iterations = 5;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = c.hint;
  opts.cps = c.cps;
  return opts;
}

class SchedPageRank : public ::testing::TestWithParam<AppCase> {};

TEST_P(SchedPageRank, BitIdenticalToManualLoopIncludingTopK) {
  const AppCase c = GetParam();
  const apps::pr::RunOptions opts = pr_options(c);
  constexpr int kTopK = 5;
  const auto machine = simtime::MachineProfile::test_profile();

  // Manual sequential baseline: the iteration loop plus the downstream
  // top-k job, run per rank inside one simmpi::run.
  std::vector<apps::pr::Result> manual(
      static_cast<std::size_t>(c.ranks));
  std::vector<std::vector<apps::pr::TopKEntry>> manual_tops(
      static_cast<std::size_t>(c.ranks));
  pfs::FileSystem manual_fs(machine, c.ranks);
  const simmpi::JobStats manual_stats = simmpi::run(
      c.ranks, machine, manual_fs, [&](simmpi::Context& ctx) {
        manual[static_cast<std::size_t>(ctx.rank())] =
            apps::pr::run_mimir_topk(
                ctx, opts, kTopK,
                &manual_tops[static_cast<std::size_t>(ctx.rank())]);
      });

  auto run = apps::pr::make_sched(opts, c.ranks, kTopK);
  ASSERT_GE(run.graph.size(), 3)
      << "partition + iterations + top-k is at least a 3-node DAG";
  pfs::FileSystem sched_fs(machine, c.ranks);
  const auto outcome = sched::run_graph(c.ranks, machine, sched_fs,
                                        run.graph, run.options);

  EXPECT_EQ(outcome.stats.sim_time, manual_stats.sim_time)
      << "scheduler must charge the exact same simulated clock";
  for (int rank = 0; rank < c.ranks; ++rank) {
    const auto& got = (*run.results)[static_cast<std::size_t>(rank)];
    const auto& want = manual[static_cast<std::size_t>(rank)];
    EXPECT_EQ(got.total_rank, want.total_rank) << "rank " << rank;
    EXPECT_EQ(got.max_rank, want.max_rank) << "rank " << rank;
    EXPECT_EQ(got.max_vertex, want.max_vertex) << "rank " << rank;
    EXPECT_EQ(got.last_delta, want.last_delta) << "rank " << rank;
    EXPECT_EQ((*run.tops)[static_cast<std::size_t>(rank)],
              manual_tops[static_cast<std::size_t>(rank)])
        << "rank " << rank;
  }
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr AppCase kPageRankCases[] = {
    {false, false, 1, "serial"},
    {false, false, 4, "base"},
    {true, false, 4, "hint"},
    {true, true, 4, "hint_cps"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, SchedPageRank, ::testing::ValuesIn(kPageRankCases),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(SchedPageRank, MidGraphNodeCrashResumesAndMatchesManual) {
  AppCase c{true, true, 4, "recovery"};
  const apps::pr::RunOptions opts = pr_options(c);
  constexpr int kTopK = 5;
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;

  // Fault-free manual baseline, and its wall clock so the node crash
  // can be aimed at the middle of the graph via a time trigger.
  std::vector<apps::pr::Result> manual(
      static_cast<std::size_t>(c.ranks));
  std::vector<std::vector<apps::pr::TopKEntry>> manual_tops(
      static_cast<std::size_t>(c.ranks));
  pfs::FileSystem manual_fs(machine, c.ranks);
  const simmpi::JobStats manual_stats = simmpi::run(
      c.ranks, machine, manual_fs, [&](simmpi::Context& ctx) {
        manual[static_cast<std::size_t>(ctx.rank())] =
            apps::pr::run_mimir_topk(
                ctx, opts, kTopK,
                &manual_tops[static_cast<std::size_t>(ctx.rank())]);
      });
  ASSERT_GT(manual_stats.sim_time, 0.0);

  // Aim the crash at the midpoint of the *checkpointed* graph run (the
  // checkpoint I/O slows the simulated clock, so the manual loop's wall
  // time would land too early — before the first commit).
  double fault_free_time = 0.0;
  {
    auto probe = apps::pr::make_sched(opts, c.ranks, kTopK);
    pfs::FileSystem probe_fs(machine, c.ranks);
    fault_free_time = sched::run_graph_with_recovery(
                          c.ranks, machine, probe_fs, probe.graph,
                          probe.options, {})
                          .stats.sim_time;
  }
  const inject::FaultPlan plan = inject::FaultPlan::parse(
      "node_crash:1@" + std::to_string(fault_free_time / 2));
  auto run = apps::pr::make_sched(opts, c.ranks, kTopK);
  pfs::FileSystem fs(machine, c.ranks);
  check::Report report;
  check::JobChecker checker(report);
  const auto outcome = sched::run_graph_with_recovery(
      c.ranks, machine, fs, run.graph, run.options, {}, &plan, nullptr,
      &checker);

  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_TRUE(outcome.resumed);
  EXPECT_GT(outcome.resumed_nodes, 0u)
      << "mid-graph crash must find completed ancestors to restore";
  ASSERT_EQ(outcome.history.size(), 2u);
  const int failed = outcome.history[0].failed_rank;
  EXPECT_TRUE(failed == 2 || failed == 3)
      << "node 1 hosts ranks 2 and 3, got " << failed;
  // Results match the manual run exactly; sim_time is NOT compared —
  // checkpoint I/O and the retry legitimately change the clock.
  for (int rank = 0; rank < c.ranks; ++rank) {
    const auto& got = (*run.results)[static_cast<std::size_t>(rank)];
    const auto& want = manual[static_cast<std::size_t>(rank)];
    EXPECT_EQ(got.total_rank, want.total_rank) << "rank " << rank;
    EXPECT_EQ(got.max_rank, want.max_rank) << "rank " << rank;
    EXPECT_EQ(got.max_vertex, want.max_vertex) << "rank " << rank;
    EXPECT_EQ(got.last_delta, want.last_delta) << "rank " << rank;
    EXPECT_EQ((*run.tops)[static_cast<std::size_t>(rank)],
              manual_tops[static_cast<std::size_t>(rank)])
        << "rank " << rank;
  }
}

// --- BFS -----------------------------------------------------------------

class SchedBfs : public ::testing::TestWithParam<AppCase> {};

TEST_P(SchedBfs, BitIdenticalToManualLoop) {
  const AppCase c = GetParam();
  apps::bfs::RunOptions opts;
  opts.scale = 7;
  opts.edge_factor = 8;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = c.hint;
  opts.cps = c.cps;
  const auto machine = simtime::MachineProfile::test_profile();

  std::vector<apps::bfs::Result> manual(
      static_cast<std::size_t>(c.ranks));
  pfs::FileSystem manual_fs(machine, c.ranks);
  const simmpi::JobStats manual_stats = simmpi::run(
      c.ranks, machine, manual_fs, [&](simmpi::Context& ctx) {
        manual[static_cast<std::size_t>(ctx.rank())] =
            apps::bfs::run_mimir(ctx, opts);
      });

  auto run = apps::bfs::make_sched(opts, c.ranks);
  pfs::FileSystem sched_fs(machine, c.ranks);
  const auto outcome = sched::run_graph(c.ranks, machine, sched_fs,
                                        run.graph, run.options);

  EXPECT_EQ(outcome.stats.sim_time, manual_stats.sim_time);
  for (int rank = 0; rank < c.ranks; ++rank) {
    const auto& got = (*run.results)[static_cast<std::size_t>(rank)];
    const auto& want = manual[static_cast<std::size_t>(rank)];
    EXPECT_EQ(got.visited, want.visited) << "rank " << rank;
    EXPECT_EQ(got.levels, want.levels) << "rank " << rank;
    EXPECT_EQ(got.checksum, want.checksum) << "rank " << rank;
  }
}

constexpr AppCase kBfsCases[] = {
    {false, false, 1, "serial"},
    {false, false, 4, "base"},
    {true, false, 4, "hint"},
    {true, true, 4, "hint_cps"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, SchedBfs, ::testing::ValuesIn(kBfsCases),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(SchedBfs, TooFewLevelsIsAUsageError) {
  apps::bfs::RunOptions opts;
  opts.scale = 7;
  opts.edge_factor = 8;
  opts.sched_max_levels = 1;  // the graph is deeper than one level
  const auto machine = simtime::MachineProfile::test_profile();
  auto run = apps::bfs::make_sched(opts, 2);
  pfs::FileSystem fs(machine, 2);
  EXPECT_THROW(
      (void)sched::run_graph(2, machine, fs, run.graph, run.options),
      mutil::UsageError);
}

// --- k-means -------------------------------------------------------------

struct KmCase {
  bool hint;
  bool pr;
  bool cps;
  int ranks;
  const char* name;
};

class SchedKmeans : public ::testing::TestWithParam<KmCase> {};

TEST_P(SchedKmeans, BitIdenticalToManualLoop) {
  const KmCase c = GetParam();
  apps::km::RunOptions opts;
  opts.num_points = 1 << 11;
  opts.iterations = 4;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = c.hint;
  opts.pr = c.pr;
  opts.cps = c.cps;
  const auto machine = simtime::MachineProfile::test_profile();

  std::vector<apps::km::Result> manual(
      static_cast<std::size_t>(c.ranks));
  pfs::FileSystem manual_fs(machine, c.ranks);
  const simmpi::JobStats manual_stats = simmpi::run(
      c.ranks, machine, manual_fs, [&](simmpi::Context& ctx) {
        manual[static_cast<std::size_t>(ctx.rank())] =
            apps::km::run_mimir(ctx, opts);
      });

  auto run = apps::km::make_sched(opts, c.ranks);
  pfs::FileSystem sched_fs(machine, c.ranks);
  const auto outcome = sched::run_graph(c.ranks, machine, sched_fs,
                                        run.graph, run.options);

  EXPECT_EQ(outcome.stats.sim_time, manual_stats.sim_time);
  for (int rank = 0; rank < c.ranks; ++rank) {
    const auto& got = (*run.results)[static_cast<std::size_t>(rank)];
    const auto& want = manual[static_cast<std::size_t>(rank)];
    ASSERT_EQ(got.centroids.size(), want.centroids.size());
    for (std::size_t k = 0; k < want.centroids.size(); ++k) {
      EXPECT_EQ(got.centroids[k].x, want.centroids[k].x);
      EXPECT_EQ(got.centroids[k].y, want.centroids[k].y);
      EXPECT_EQ(got.centroids[k].z, want.centroids[k].z);
    }
    EXPECT_EQ(got.counts, want.counts) << "rank " << rank;
    EXPECT_EQ(got.inertia, want.inertia) << "rank " << rank;
    EXPECT_EQ(got.last_shift, want.last_shift) << "rank " << rank;
  }
}

constexpr KmCase kKmeansCases[] = {
    {true, true, false, 1, "serial"},
    {true, true, false, 4, "hint_pr"},
    {false, false, false, 4, "base_reduce"},
    {true, true, true, 4, "hint_pr_cps"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, SchedKmeans, ::testing::ValuesIn(kKmeansCases),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
