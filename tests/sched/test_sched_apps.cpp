// PageRank's Mimir driver is its job graph (apps::pr::make_sched), which
// pr::run_mimir runs on the caller's context through sched::run_in. The
// table below pins what the hand-written job loop it replaced charged:
// simulated clock, shuffle volume, every rank's memory peak and every
// rank's map-phase seconds and wait, recorded from that loop and
// compared exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "check/checker.hpp"
#include "inject/fault.hpp"
#include "sched/scheduler.hpp"
#include "stats/trace.hpp"

namespace {

simtime::MachineProfile profile_with_io() {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  return machine;
}

constexpr int kRanks = 4;

struct PinCase {
  const char* name;
  bool comet;  ///< comet_sim with 4 ranks per node, else test_profile
  int scale;
  int edge_factor;
  int iterations;
  std::uint64_t page_size;
  std::uint64_t comm_buffer;
  bool hint;
  bool cps;
  bool overlap;
  bool balance;
  // What the loop charged:
  double sim_time;
  std::uint64_t shuffle_bytes;
  std::uint64_t rank_peak[kRanks];
  double map_seconds[kRanks];
  double map_wait[kRanks];
};

// gtest would print the case's raw bytes, pointer included, into the
// ctest name; print its name instead.
void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

// The first six are ablation_overlap's and ablation_balance's settings
// on the Kronecker graph; the last is a larger graph with hint and cps.
constexpr PinCase kPinCases[] = {
    {"plain", true, 10, 8, 3, 64 << 10, 8 << 10, false, false, false, false,
     2.7711771428563177,
     786432,
     {196072, 197640, 196248, 270200},
     {2.4111411428567013, 2.4111411428567013, 2.4111411428567013,
      2.4111411428567013},
     {0.83206285714267847, 0.77642571428556462, 0.88244571428553509,
      0.033111428571407329}},
    {"plain_hint_cps", true, 10, 8, 3, 64 << 10, 8 << 10, true, true, false,
     false,
     1.1409571428569578,
     214688,
     {196072, 197640, 196248, 221048},
     {1.0642411428569032, 1.0642411428569032, 1.0642411428569032,
      1.0642411428569032},
     {0.3096571428570471, 0.26833428571420814, 0.29953428571418944,
      0.006119999999998323}},
    {"overlap", true, 10, 8, 3, 64 << 10, 8 << 10, false, false, true, false,
     2.1801411428568365,
     786432,
     {196072, 197640, 196248, 270200},
     {1.7763908571428304, 1.7756451428571165, 1.7723537142856873,
      1.8178337142856875},
     {0.89613085714305019, 0.85860514285736445, 0.92593371428590499,
      0.52939371428606996}},
    {"overlap_hint_cps", true, 10, 8, 3, 64 << 10, 8 << 10, true, true, true,
     false,
     1.0630668571426698,
     214688,
     {196072, 197640, 196248, 204664},
     {0.97825942857118675, 0.98289942857118673, 0.97626514285690091,
      0.98914514285690103},
     {0.41301942857132495, 0.3798794285713411, 0.407245142857039,
      0.17842514285713534}},
    {"balance", true, 10, 8, 3, 64 << 10, 8 << 10, false, false, false, true,
     3.1177937142845131,
     832416,
     {294376, 295944, 294552, 302968},
     {2.9282777142849405, 2.9282777142849405, 2.9282777142849405,
      2.9282777142849405},
     {0.64941428571408732, 0.66777428571412645, 0.76957714285693779,
      0.14437714285713008}},
    {"balance_hint_cps", true, 10, 8, 3, 64 << 10, 8 << 10, true, true, false,
     true,
     1.5894811428568845,
     256856,
     {294376, 295944, 294552, 302968},
     {1.5170851428568346, 1.5170851428568346, 1.5170851428568346,
      1.5170851428568346},
     {0.3187942857141845, 0.40956571428563315, 0.43425999999990367,
      0.14740285714285226}},
    {"kron12_hint_cps", false, 12, 16, 5, 32 << 10, 32 << 10, true, true,
     false, false,
     4.3047759999858944e-06,
     1701616,
     {421752, 421680, 508208, 614440},
     {4.078215999986587e-06, 4.078215999986587e-06, 4.078215999986587e-06,
      4.078215999986587e-06},
     {1.1987359999944284e-06, 1.2013199999944244e-06,
      8.1735199999632658e-07, 1.6304000000013088e-08}},
};

class SchedPageRank : public ::testing::TestWithParam<PinCase> {};

TEST_P(SchedPageRank, RunMimirChargesWhatTheLoopCharged) {
  const PinCase& c = GetParam();
  auto machine = c.comet ? simtime::MachineProfile::comet_sim()
                         : simtime::MachineProfile::test_profile();
  if (c.comet) machine.ranks_per_node = kRanks;
  apps::pr::RunOptions opts;
  opts.scale = c.scale;
  opts.edge_factor = c.edge_factor;
  opts.iterations = c.iterations;
  opts.page_size = c.page_size;
  opts.comm_buffer = c.comm_buffer;
  opts.hint = c.hint;
  opts.cps = c.cps;
  opts.overlap = c.overlap;
  opts.balance = c.balance;

  pfs::FileSystem fs(machine, kRanks);
  stats::Collector collector;
  std::vector<std::uint64_t> peaks(kRanks);
  const simmpi::JobStats stats = simmpi::run(
      kRanks, machine, fs,
      [&](simmpi::Context& ctx) {
        (void)apps::pr::run_mimir(ctx, opts);
        peaks[static_cast<std::size_t>(ctx.rank())] = ctx.tracker.peak();
      },
      &collector);

  EXPECT_EQ(stats.sim_time, c.sim_time);
  EXPECT_EQ(stats.shuffle_bytes, c.shuffle_bytes);
  for (int rank = 0; rank < kRanks; ++rank) {
    double map_seconds = 0;
    double map_wait = 0;
    for (const stats::PhaseRecord& phase : collector.rank(rank).phases()) {
      if (phase.name != "map") continue;
      map_seconds += phase.seconds();
      map_wait += phase.wait;
    }
    EXPECT_EQ(peaks[static_cast<std::size_t>(rank)], c.rank_peak[rank])
        << "rank " << rank;
    EXPECT_EQ(map_seconds, c.map_seconds[rank]) << "rank " << rank;
    EXPECT_EQ(map_wait, c.map_wait[rank]) << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pins, SchedPageRank, ::testing::ValuesIn(kPinCases),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(SchedPageRank, MidGraphNodeCrashResumesAndMatchesManual) {
  apps::pr::RunOptions opts;
  opts.scale = 7;
  opts.edge_factor = 8;
  opts.iterations = 5;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = true;
  opts.cps = true;
  constexpr int kTopK = 5;
  auto machine = profile_with_io();
  machine.ranks_per_node = 2;

  // Fault-free baseline: the same graph through run_graph.
  auto baseline = apps::pr::make_sched(opts, kRanks, kTopK);
  ASSERT_GE(baseline.graph.size(), 3)
      << "partition + iterations + top-k is at least a 3-node DAG";
  pfs::FileSystem baseline_fs(machine, kRanks);
  (void)sched::run_graph(kRanks, machine, baseline_fs, baseline.graph,
                         baseline.options);

  // Aim the crash at the midpoint of the *checkpointed* graph run (the
  // checkpoint I/O slows the simulated clock, so the plain run's time
  // would land too early — before the first commit).
  double fault_free_time = 0.0;
  {
    auto probe = apps::pr::make_sched(opts, kRanks, kTopK);
    pfs::FileSystem probe_fs(machine, kRanks);
    fault_free_time = sched::run_graph_with_recovery(
                          kRanks, machine, probe_fs, probe.graph,
                          probe.options, {})
                          .stats.sim_time;
  }
  const inject::FaultPlan plan = inject::FaultPlan::parse(
      "node_crash:1@" + std::to_string(fault_free_time / 2));
  auto run = apps::pr::make_sched(opts, kRanks, kTopK);
  pfs::FileSystem fs(machine, kRanks);
  check::Report report;
  check::JobChecker checker(report);
  const auto outcome = sched::run_graph_with_recovery(
      kRanks, machine, fs, run.graph, run.options, {}, &plan, nullptr,
      &checker);

  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_TRUE(outcome.resumed);
  EXPECT_GT(outcome.resumed_nodes, 0u)
      << "mid-graph crash must find completed ancestors to restore";
  ASSERT_EQ(outcome.history.size(), 2u);
  const int failed = outcome.history[0].failed_rank;
  EXPECT_TRUE(failed == 2 || failed == 3)
      << "node 1 hosts ranks 2 and 3, got " << failed;
  // Results match the fault-free run exactly; sim_time is NOT compared —
  // checkpoint I/O and the retry legitimately change the clock.
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    const auto& got = (*run.results)[r];
    const auto& want = (*baseline.results)[r];
    EXPECT_EQ(got.total_rank, want.total_rank) << "rank " << rank;
    EXPECT_EQ(got.max_rank, want.max_rank) << "rank " << rank;
    EXPECT_EQ(got.max_vertex, want.max_vertex) << "rank " << rank;
    EXPECT_EQ(got.last_delta, want.last_delta) << "rank " << rank;
    EXPECT_EQ((*run.tops)[r], (*baseline.tops)[r]) << "rank " << rank;
  }
}

}  // namespace
