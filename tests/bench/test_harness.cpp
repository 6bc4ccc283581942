// Bench harness behaviors that tests can pin down without running a
// full figure: the error envelope's status mapping.
#include "harness.hpp"

#include <gtest/gtest.h>

#include "memtrack/tracker.hpp"

namespace {

TEST(RunConfig, SpillAndOomStatusesSurvive) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 2;
  {
    pfs::FileSystem fs(machine, 2);
    const auto outcome = bench::run_config(
        2, machine, fs,
        [](simmpi::Context& ctx) { return ctx.rank() == 0; });
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
      });
  EXPECT_EQ(outcome.status, bench::Outcome::Status::kOom);
}

}  // namespace
