#include "apps/kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using apps::km::RunOptions;

TEST(KMeans, BlobPointsAreDeterministic) {
  RunOptions opts;
  const auto a = apps::km::blob_point(opts, 42);
  const auto b = apps::km::blob_point(opts, 42);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.z, b.z);
}

TEST(KMeans, ReferenceRecoversBlobs) {
  RunOptions opts;
  opts.num_points = 1 << 12;
  opts.clusters = 6;
  const auto ref = apps::km::reference(opts);
  ASSERT_EQ(ref.centroids.size(), 6u);
  // Well-separated blobs: every cluster keeps ~1/6 of the points and the
  // average within-cluster distance is on the order of sigma.
  std::uint64_t total = 0;
  for (const auto n : ref.counts) {
    EXPECT_GT(n, (1u << 12) / 12);
    total += n;
  }
  EXPECT_EQ(total, 1u << 12);
  EXPECT_LT(ref.inertia / static_cast<double>(total),
            10 * opts.blob_sigma * opts.blob_sigma);
  // Converged: last centroid shift negligible.
  EXPECT_LT(ref.last_shift, 1e-6);
}

struct KmCase {
  bool mrmpi;
  bool pr;
  bool cps;
  int ranks;
  const char* name;
};

class KMeansFrameworks : public ::testing::TestWithParam<KmCase> {};

TEST_P(KMeansFrameworks, MatchesSerialReference) {
  const KmCase c = GetParam();
  RunOptions opts;
  opts.num_points = 1 << 12;
  opts.clusters = 5;
  opts.iterations = 8;
  opts.pr = c.pr;
  opts.cps = c.cps;
  const auto ref = apps::km::reference(opts);

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, c.ranks);
  simmpi::run(c.ranks, machine, fs, [&](simmpi::Context& ctx) {
    const auto result = c.mrmpi ? apps::km::run_mrmpi(ctx, opts)
                                : apps::km::run_mimir(ctx, opts);
    ASSERT_EQ(result.centroids.size(), ref.centroids.size());
    for (std::size_t k = 0; k < ref.centroids.size(); ++k) {
      EXPECT_NEAR(result.centroids[k].x, ref.centroids[k].x, 1e-9);
      EXPECT_NEAR(result.centroids[k].y, ref.centroids[k].y, 1e-9);
      EXPECT_NEAR(result.centroids[k].z, ref.centroids[k].z, 1e-9);
      EXPECT_EQ(result.counts[k], ref.counts[k]);
    }
    EXPECT_NEAR(result.inertia, ref.inertia, 1e-9);
  });
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr KmCase kKmCases[] = {
    {false, true, false, 1, "mimir_serial"},
    {false, true, false, 4, "mimir_pr"},
    {false, false, false, 4, "mimir_reduce"},
    {false, true, true, 4, "mimir_pr_cps"},
    {true, false, false, 3, "mrmpi"},
    {true, false, true, 3, "mrmpi_cps"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, KMeansFrameworks, ::testing::ValuesIn(kKmCases),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
