// Bench harness behaviors that tests can pin down without running a
// full figure: the error envelope's status mapping and the report's
// point labels.
#include "harness.hpp"

#include <gtest/gtest.h>

#include "memtrack/tracker.hpp"
#include "mutil/error.hpp"

namespace {

TEST(RunConfig, SpillAndOomStatusesSurvive) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 2;
  {
    pfs::FileSystem fs(machine, 2);
    const auto outcome = bench::run_config(
        2, machine, fs,
        [](simmpi::Context& ctx) { return ctx.rank() == 0; },
        {"envelope", "2 ranks", "spill"});
    EXPECT_EQ(outcome.status, bench::Outcome::Status::kSpilled);
  }
  auto limited = machine;
  limited.node_memory = 1 << 10;
  pfs::FileSystem fs(limited, 1);
  const auto outcome = bench::run_config(
      1, limited, fs,
      [](simmpi::Context& ctx) {
        const memtrack::TrackedBuffer buf(ctx.tracker, 1 << 20);
        return false;
      },
      {"envelope", "1 rank", "oom"});
  EXPECT_EQ(outcome.status, bench::Outcome::Status::kOom);
}

// bench_diff.py matches points by label, so with reporting on a run
// without one, or with one the figure already recorded, is refused.
TEST(Report, RefusesAnEmptyOrRepeatedLabel) {
  bench::Report::init("test_harness",
                      mutil::Config::from_args(
                          {"stats=1", "bench_dir=" + ::testing::TempDir()}));
  const auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 1);
  const auto run = [&](const bench::RunLabel& label) {
    return bench::run_config(
        1, machine, fs, [](simmpi::Context&) { return false; }, label);
  };
  EXPECT_NO_THROW(run({"labels", "x", "a"}));
  EXPECT_NO_THROW(run({"labels", "x", "b"}));
  EXPECT_THROW(run({"labels", "x", "a"}), mutil::UsageError);
  EXPECT_THROW(run({}), mutil::UsageError);
}

}  // namespace
