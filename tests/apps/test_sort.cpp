#include "apps/sort.hpp"

#include <gtest/gtest.h>

namespace {

using apps::sort::RunOptions;

TEST(SampleSort, KeysAreDeterministic) {
  EXPECT_EQ(apps::sort::record_key(17, 5), apps::sort::record_key(17, 5));
  EXPECT_NE(apps::sort::record_key(17, 5), apps::sort::record_key(18, 5));
}

struct SortCase {
  bool mrmpi;
  int ranks;
  std::uint64_t records;
  const char* name;
};

class SampleSortFrameworks : public ::testing::TestWithParam<SortCase> {};

TEST_P(SampleSortFrameworks, ProducesGlobalOrder) {
  const SortCase c = GetParam();
  RunOptions opts;
  opts.num_records = c.records;
  const std::uint64_t expected = apps::sort::reference_checksum(opts);

  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, c.ranks);
  simmpi::run(c.ranks, machine, fs, [&](simmpi::Context& ctx) {
    const auto result = c.mrmpi ? apps::sort::run_mrmpi(ctx, opts)
                                : apps::sort::run_mimir(ctx, opts);
    EXPECT_TRUE(result.globally_sorted);
    EXPECT_EQ(result.records, opts.num_records)
        << "no record may be lost or duplicated";
    EXPECT_EQ(result.checksum, expected);
    // Sampling should keep ranks within a reasonable factor of ideal.
    EXPECT_LT(result.imbalance, 3.0);
  });
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr SortCase kSortCases[] = {
    {false, 1, 1 << 10, "mimir_serial"},
    {false, 4, 1 << 14, "mimir_p4"},
    {false, 7, 1 << 14, "mimir_p7"},
    {true, 4, 1 << 13, "mrmpi_p4"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, SampleSortFrameworks, ::testing::ValuesIn(kSortCases),
    [](const auto& param_info) { return param_info.param.name; });

TEST(SampleSort, RangePartitionBeatsHashForOrdering) {
  // Sanity check of the mechanism: with the default hash partitioner
  // the ranges interleave, so a hash-shuffled job is NOT globally
  // ordered — the custom partitioner is what makes sorting work.
  constexpr int kRanks = 4;
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);
  simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
    mimir::Job job(ctx, {});
    job.map_custom([&](mimir::Emitter& out) {
      for (std::uint64_t i = ctx.rank(); i < 2000;
           i += static_cast<std::uint64_t>(ctx.size())) {
        const std::uint64_t key = apps::sort::record_key(1, i);
        out.emit({reinterpret_cast<const char*>(&key), 8}, "x");
      }
    });
    std::uint64_t my_min = ~0ULL, my_max = 0;
    job.intermediate().scan([&](const mimir::KVView& kv) {
      const std::uint64_t k = mimir::as_u64(kv.key);
      my_min = std::min(my_min, k);
      my_max = std::max(my_max, k);
    });
    const auto mins = ctx.comm.allgather_u64(my_min);
    const auto maxs = ctx.comm.allgather_u64(my_max);
    bool ordered = true;
    for (std::size_t r = 1; r < mins.size(); ++r) {
      if (mins[r] < maxs[r - 1]) ordered = false;
    }
    EXPECT_FALSE(ordered) << "hash routing must interleave key ranges";
  });
}

TEST(SampleSort, PartitionerValidation) {
  // A partitioner returning a bad rank must be rejected loudly.
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](simmpi::Context& ctx) {
                         mimir::JobConfig cfg;
                         cfg.partitioner = [](std::string_view, int) {
                           return 99;
                         };
                         mimir::Job job(ctx, cfg);
                         job.map_custom([](mimir::Emitter& out) {
                           out.emit("k", "v");
                         });
                       }),
      mutil::UsageError);
}

}  // namespace
