#include "apps/bfs.hpp"

#include <gtest/gtest.h>

#include <map>

#include "apps/vertex_map.hpp"

namespace {

using apps::bfs::RunOptions;

TEST(VertexMapTest, InsertFindGrow) {
  memtrack::Tracker tracker;
  apps::VertexMap<std::uint64_t> map(tracker, 16);
  for (std::uint64_t v = 0; v < 1000; ++v) {
    EXPECT_TRUE(map.insert_if_absent(v, v * 10));
  }
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t v = 0; v < 1000; ++v) {
    EXPECT_FALSE(map.insert_if_absent(v, 0)) << "duplicate must not insert";
    EXPECT_EQ(map.find(v).value(), v * 10) << "value must be preserved";
  }
  EXPECT_FALSE(map.find(5000).has_value());
  EXPECT_GT(tracker.current(), 0u);
}

TEST(VertexMapTest, PutOverwritesAndForEachVisitsAll) {
  memtrack::Tracker tracker;
  apps::VertexMap<std::uint32_t> map(tracker);
  map.put(1, 10);
  map.put(1, 20);
  map.put(2, 30);
  EXPECT_EQ(map.size(), 2u);
  std::map<std::uint64_t, std::uint32_t> seen;
  map.for_each([&](std::uint64_t v, std::uint32_t x) { seen[v] = x; });
  EXPECT_EQ(seen.at(1), 20u);
  EXPECT_EQ(seen.at(2), 30u);
}

TEST(Kronecker, DeterministicAndInRange) {
  for (std::uint64_t e = 0; e < 1000; ++e) {
    const auto [u, v] = apps::bfs::kronecker_edge(10, 3, e);
    EXPECT_LT(u, 1u << 10);
    EXPECT_LT(v, 1u << 10);
    const auto again = apps::bfs::kronecker_edge(10, 3, e);
    EXPECT_EQ(again.first, u);
    EXPECT_EQ(again.second, v);
  }
}

TEST(Kronecker, PowerLawDegrees) {
  // Scale-free: a small set of hub vertices should hold a large share of
  // edge endpoints.
  constexpr int kScale = 10;
  constexpr std::uint64_t kEdges = 16u << kScale;
  std::map<std::uint64_t, std::uint64_t> degree;
  for (std::uint64_t e = 0; e < kEdges; ++e) {
    const auto [u, v] = apps::bfs::kronecker_edge(kScale, 3, e);
    ++degree[u];
    ++degree[v];
  }
  std::vector<std::uint64_t> degrees;
  degrees.reserve(degree.size());
  for (const auto& [v, d] : degree) degrees.push_back(d);
  std::sort(degrees.rbegin(), degrees.rend());
  std::uint64_t top16 = 0, total = 0;
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    if (i < 16) top16 += degrees[i];
    total += degrees[i];
  }
  EXPECT_GT(top16 * 10, total)
      << "top 16 vertices should hold >10% of endpoints";
}

TEST(Bfs, ReferenceReachesMostOfTheGraph) {
  RunOptions opts;
  opts.scale = 8;
  const auto ref = apps::bfs::reference(opts);
  EXPECT_GT(ref.visited, (1u << 8) / 4);
  EXPECT_GT(ref.levels, 1u);
}

struct BfsCase {
  bool mrmpi;
  bool hint;
  bool cps;
  int ranks;
  const char* name;
};

class BfsFrameworks : public ::testing::TestWithParam<BfsCase> {};

TEST_P(BfsFrameworks, MatchesSerialReference) {
  const BfsCase c = GetParam();
  RunOptions opts;
  opts.scale = 8;
  opts.edge_factor = 8;
  opts.page_size = 32 << 10;
  opts.comm_buffer = 32 << 10;
  opts.hint = c.hint;
  opts.cps = c.cps;
  const auto ref = apps::bfs::reference(opts);

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, c.ranks);
  simmpi::run(c.ranks, machine, fs, [&](simmpi::Context& ctx) {
    const auto result = c.mrmpi ? apps::bfs::run_mrmpi(ctx, opts)
                                : apps::bfs::run_mimir(ctx, opts);
    EXPECT_EQ(result.visited, ref.visited);
    EXPECT_EQ(result.levels, ref.levels);
    EXPECT_EQ(result.checksum, ref.checksum);
  });
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr BfsCase kBfsCases[] = {
    {false, false, false, 1, "mimir_serial"},
    {false, false, false, 4, "mimir_base"},
    {false, true, false, 4, "mimir_hint"},
    {false, true, true, 4, "mimir_hint_cps"},
    {true, false, false, 4, "mrmpi_base"},
    {true, false, true, 4, "mrmpi_cps"},
    {false, false, false, 5, "mimir_p5"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, BfsFrameworks, ::testing::ValuesIn(kBfsCases),
    [](const auto& param_info) { return param_info.param.name; });

TEST(Bfs, CompressionReducesPartitionKvCount) {
  // Kronecker graphs have many duplicate / hub edges, so concatenating
  // combiners shrink the number of shuffled KVs.
  constexpr int kRanks = 2;
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);
  RunOptions opts;
  opts.scale = 8;
  opts.edge_factor = 8;

  std::uint64_t kvs_plain = 0, kvs_cps = 0;
  for (const bool cps : {false, true}) {
    simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
      mimir::JobConfig cfg;
      cfg.kv_compression = cps;
      mimir::Job job(ctx, cfg);
      const mimir::CombineFn concat =
          [](std::string_view, std::string_view a, std::string_view b,
             std::string& out) {
            out.assign(a);
            out.append(b);
          };
      job.map_custom(
          [&](mimir::Emitter& out) {
            const std::uint64_t edges = opts.num_edges();
            const auto r = static_cast<std::uint64_t>(ctx.rank());
            const auto p = static_cast<std::uint64_t>(ctx.size());
            for (std::uint64_t e = edges * r / p;
                 e < edges * (r + 1) / p; ++e) {
              const auto [u, v] =
                  apps::bfs::kronecker_edge(opts.scale, opts.seed, e);
              const std::string_view uv = mimir::as_view(u);
              const std::string_view vv = mimir::as_view(v);
              out.emit(uv, vv);
              out.emit(vv, uv);
            }
          },
          cps ? concat : mimir::CombineFn{});
      const auto sent = ctx.comm.allreduce_u64(
          job.metrics().map_emitted_kvs, simmpi::Op::kSum);
      if (ctx.rank() == 0) (cps ? kvs_cps : kvs_plain) = sent;
    });
  }
  EXPECT_LT(kvs_cps, kvs_plain / 2);
}

}  // namespace
