#include "apps/octree.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "mutil/error.hpp"

namespace {

using apps::oc::octant_code;
using apps::oc::Point;
using apps::oc::RunOptions;

TEST(Octree, MortonCodeBasics) {
  // Depth 1: each coordinate contributes one bit (x highest).
  EXPECT_EQ(octant_code({0.1f, 0.1f, 0.1f}, 1), 0u);
  EXPECT_EQ(octant_code({0.9f, 0.1f, 0.1f}, 1), 4u);
  EXPECT_EQ(octant_code({0.1f, 0.9f, 0.1f}, 1), 2u);
  EXPECT_EQ(octant_code({0.1f, 0.1f, 0.9f}, 1), 1u);
  EXPECT_EQ(octant_code({0.9f, 0.9f, 0.9f}, 1), 7u);
}

TEST(Octree, MortonCodeRefines) {
  // A child code's top bits are its parent's code: the map loops test
  // a point's parent octant as `code >> 3`, so this must hold at every
  // depth, for clamped and NaN coordinates too.
  std::vector<Point> points = apps::oc::generate_points(1 << 16, 0, 1, 3);
  points.push_back({0.3f, 0.6f, 0.9f});
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float edges[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.0f, 0.5f, inf, -inf, nan};
  for (const float x : edges) {
    for (const float y : edges) {
      for (const float z : edges) points.push_back({x, y, z});
    }
  }
  for (const Point& p : points) {
    for (int depth = 1; depth < apps::oc::kMaxDepth; ++depth) {
      ASSERT_EQ(octant_code(p, depth + 1) >> 3, octant_code(p, depth))
          << "(" << p.x << ", " << p.y << ", " << p.z << ") depth "
          << depth;
    }
  }
}

TEST(Octree, OutOfRangeCoordinatesClamp) {
  EXPECT_EQ(octant_code({-3.0f, -1.0f, -0.5f}, 2), octant_code({0, 0, 0}, 2));
  EXPECT_EQ(octant_code({4.0f, 2.0f, 1.5f}, 2),
            octant_code({0.999f, 0.999f, 0.999f}, 2));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(octant_code({nan, 0.9f, nan}, 3), octant_code({0, 0.9f, 0}, 3));
}

TEST(Octree, GenerationIsRankPartitioned) {
  const auto all = apps::oc::generate_points(1000, 0, 1, 42);
  const auto first = apps::oc::generate_points(1000, 0, 4, 42);
  const auto last = apps::oc::generate_points(1000, 3, 4, 42);
  ASSERT_EQ(all.size(), 1000u);
  ASSERT_EQ(first.size(), 250u);
  EXPECT_EQ(all[0].x, first[0].x);
  EXPECT_EQ(all[750].x, last[0].x);
}

TEST(Octree, PointsFollowNormalDistribution) {
  const auto points = apps::oc::generate_points(20000, 0, 1, 7, 0.5);
  double sum = 0, sum_sq = 0;
  for (const auto& p : points) {
    sum += p.x;
    sum_sq += static_cast<double>(p.x) * p.x;
  }
  const double mean = sum / static_cast<double>(points.size());
  const double var = sum_sq / static_cast<double>(points.size()) -
                     mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(Octree, ReferenceFindsDenseRegions) {
  RunOptions opts;
  opts.num_points = 1 << 12;
  opts.density = 0.01;
  opts.max_depth = 8;
  const auto ref = apps::oc::reference(opts);
  EXPECT_GT(ref.levels, 1);
  EXPECT_GT(ref.dense_octants, 0u);
  EXPECT_GT(ref.clustered_points, 0u);
}

// Every occupied octant is dense (threshold 1), so a run refines all
// the way to max_depth.
RunOptions all_dense(int max_depth) {
  RunOptions opts;
  opts.num_points = 64;
  opts.density = 0.0;
  opts.max_depth = max_depth;
  return opts;
}

TEST(Octree, RefinesToDepth21AndRejectsDepth22) {
  // Past depth 21 distinct octants would share a Morton code.
  const RunOptions deepest = all_dense(apps::oc::kMaxDepth);
  const auto ref = apps::oc::reference(deepest);
  EXPECT_EQ(ref.levels, apps::oc::kMaxDepth);
  EXPECT_EQ(ref.clustered_points, 64u);
  EXPECT_THROW(apps::oc::reference(all_dense(apps::oc::kMaxDepth + 1)),
               mutil::ConfigError);
  EXPECT_THROW(apps::oc::reference(all_dense(0)), mutil::ConfigError);

  for (const bool mrmpi : {false, true}) {
    SCOPED_TRACE(mrmpi ? "mrmpi" : "mimir");
    const auto run = [mrmpi](const RunOptions& opts) {
      apps::oc::Result result;
      simmpi::run_test(2, [&](simmpi::Context& ctx) {
        const auto r = mrmpi ? apps::oc::run_mrmpi(ctx, opts)
                             : apps::oc::run_mimir(ctx, opts);
        if (ctx.rank() == 0) result = r;
      });
      return result;
    };
    const auto result = run(deepest);
    EXPECT_EQ(result.levels, apps::oc::kMaxDepth);
    EXPECT_EQ(result.dense_octants, ref.dense_octants);
    EXPECT_EQ(result.checksum, ref.checksum);
    EXPECT_THROW(run(all_dense(apps::oc::kMaxDepth + 1)),
                 mutil::ConfigError);
    EXPECT_THROW(run(all_dense(0)), mutil::ConfigError);
  }
}

struct OcCase {
  bool mrmpi;
  bool hint;
  bool pr;
  bool cps;
  int ranks;
  const char* name;
};

class OcFrameworks : public ::testing::TestWithParam<OcCase> {};

TEST_P(OcFrameworks, MatchesSerialReference) {
  const OcCase c = GetParam();
  RunOptions opts;
  opts.num_points = 1 << 12;
  opts.density = 0.01;
  opts.max_depth = 6;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = c.hint;
  opts.pr = c.pr;
  opts.cps = c.cps;
  const auto ref = apps::oc::reference(opts);

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, c.ranks);
  simmpi::run(c.ranks, machine, fs, [&](simmpi::Context& ctx) {
    const auto result = c.mrmpi ? apps::oc::run_mrmpi(ctx, opts)
                                : apps::oc::run_mimir(ctx, opts);
    EXPECT_EQ(result.levels, ref.levels);
    EXPECT_EQ(result.dense_octants, ref.dense_octants);
    EXPECT_EQ(result.clustered_points, ref.clustered_points);
    EXPECT_EQ(result.checksum, ref.checksum);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Paths, OcFrameworks,
    ::testing::Values(OcCase{false, false, false, false, 1, "mimir_serial"},
                      OcCase{false, false, false, false, 4, "mimir_base"},
                      OcCase{false, true, false, false, 4, "mimir_hint"},
                      OcCase{false, true, true, false, 4, "mimir_hint_pr"},
                      OcCase{false, true, true, true, 4, "mimir_all"},
                      OcCase{true, false, false, false, 4, "mrmpi_base"},
                      OcCase{true, false, false, true, 4, "mrmpi_cps"},
                      OcCase{false, false, false, false, 7, "mimir_p7"}),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
