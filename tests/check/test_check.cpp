// Negative tests for the mimir-check analyzers: each seeds one classic
// bug (mismatched collectives, pairwise alltoallv disagreement, a
// wait-for deadlock cycle, a leaked container page) and asserts the
// check::Report names the faulty ranks and phase. The equivalence test
// pins the checker's core guarantee: simulated results are bit-identical
// with checking on or off.
#include "check/checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

// The leak test allocates a container it never frees; hide it from
// LeakSanitizer when the suite is built with MIMIR_SANITIZE=address.
#if defined(__SANITIZE_ADDRESS__)
#define MIMIR_HAVE_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MIMIR_HAVE_LSAN 1
#endif
#endif
#ifdef MIMIR_HAVE_LSAN
#include <sanitizer/lsan_interface.h>
#endif

#include "mimir/job.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"
#include "stats/registry.hpp"

namespace {

using check::CheckConfig;
using check::Diagnostic;
using check::JobChecker;
using check::Report;
using simmpi::Context;

// --- Report unit tests ----------------------------------------------------

TEST(CheckReport, TextNamesSeverityAnalyzerRanksAndPhase) {
  Report report;
  Diagnostic d;
  d.severity = check::Severity::kError;
  d.analyzer = "collective";
  d.code = "collective-mismatch";
  d.message = "rank 3 entered barrier";
  d.ranks = {1, 3};
  d.phase = "map/aggregate";
  report.add(d);

  const std::string text = report.text();
  EXPECT_NE(text.find("[error][collective][collective-mismatch]"),
            std::string::npos);
  EXPECT_NE(text.find("ranks 1,3"), std::string::npos);
  EXPECT_NE(text.find("(phase map/aggregate)"), std::string::npos);
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 0u);
  EXPECT_EQ(report.count("collective-mismatch"), 1u);
  EXPECT_TRUE(report.first("no-such-code").code.empty());
}

TEST(CheckReport, JsonEscapesAndCounts) {
  Report report;
  Diagnostic d;
  d.severity = check::Severity::kWarning;
  d.analyzer = "lifecycle";
  d.code = "page-leak";
  d.message = "phase \"map\" leaked";
  d.ranks = {2};
  report.add(d);

  const std::string json = report.json();
  EXPECT_NE(json.find("\"code\":\"page-leak\""), std::string::npos);
  EXPECT_NE(json.find("phase \\\"map\\\" leaked"), std::string::npos);
  EXPECT_NE(json.find("\"ranks\":[2]"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

TEST(CheckConfigTest, ReadsConfigKeys) {
  mutil::Config cfg;
  cfg.set("mimir.check.watchdog_ms", "50");
  cfg.set("mimir.check.stalls", "5");
  const CheckConfig out = CheckConfig::from(cfg);
  EXPECT_EQ(out.watchdog_interval_ms, 50);
  EXPECT_EQ(out.watchdog_stalls, 5);
}

// --- collective-matching verifier -----------------------------------------

TEST(CheckCollective, DivergentRankIsNamed) {
  Report report;
  JobChecker checker(report);
  EXPECT_THROW(
      simmpi::run_test(
          4,
          [](Context& ctx) {
            if (ctx.rank() == 2) {
              ctx.comm.allreduce_u64(1, simmpi::Op::kSum);
            } else {
              ctx.comm.barrier();
            }
          },
          nullptr, &checker),
      mutil::CommError);

  ASSERT_EQ(report.count("collective-mismatch"), 1u);
  const Diagnostic d = report.first("collective-mismatch");
  EXPECT_EQ(d.ranks, std::vector<int>{2});
  EXPECT_NE(d.message.find("allreduce_u64"), std::string::npos);
  EXPECT_NE(d.message.find("barrier"), std::string::npos);
}

TEST(CheckCollective, ReorderedCollectivesAreAMismatch) {
  // Rank 0 runs the same collectives in the opposite order; the first
  // rendezvous pairs its allreduce against everyone else's barrier.
  Report report;
  JobChecker checker(report);
  EXPECT_THROW(
      simmpi::run_test(
          3,
          [](Context& ctx) {
            if (ctx.rank() == 0) {
              ctx.comm.allreduce_u64(1, simmpi::Op::kSum);
              ctx.comm.barrier();
            } else {
              ctx.comm.barrier();
              ctx.comm.allreduce_u64(1, simmpi::Op::kSum);
            }
          },
          nullptr, &checker),
      mutil::CommError);
  ASSERT_GE(report.count("collective-mismatch"), 1u);
  EXPECT_EQ(report.first("collective-mismatch").ranks, std::vector<int>{0});
}

TEST(CheckCollective, AlltoallvPairwiseCountMismatchNamesBothRanks) {
  Report report;
  JobChecker checker(report);
  EXPECT_THROW(
      simmpi::run_test(
          2,
          [](Context& ctx) {
            // Rank 1 advertises 8 bytes for rank 0, but rank 0 only
            // expects 4 — the classic sendcounts/recvcounts skew.
            const bool skewed = ctx.rank() == 1;
            const std::vector<std::uint64_t> send_counts =
                skewed ? std::vector<std::uint64_t>{8, 4}
                       : std::vector<std::uint64_t>{4, 4};
            const std::vector<std::uint64_t> send_displs =
                skewed ? std::vector<std::uint64_t>{0, 8}
                       : std::vector<std::uint64_t>{0, 4};
            const std::vector<std::uint64_t> recv_counts{4, 4};
            const std::vector<std::uint64_t> recv_displs{0, 4};
            const std::vector<std::byte> send(12);
            std::vector<std::byte> recv(8);
            ctx.comm.alltoallv(send, send_counts, send_displs, recv,
                               recv_counts, recv_displs);
          },
          nullptr, &checker),
      mutil::CommError);

  ASSERT_GE(report.count("alltoallv-count-mismatch"), 1u);
  const Diagnostic d = report.first("alltoallv-count-mismatch");
  std::vector<int> ranks = d.ranks;
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1}));
  EXPECT_NE(d.message.find("sendcounts[0] = 8"), std::string::npos);
  EXPECT_NE(d.message.find("recvcounts[1] = 4"), std::string::npos);
}

TEST(CheckCollective, UndersizedRecvBufferIsALocalBoundsError) {
  Report report;
  JobChecker checker(report);
  EXPECT_THROW(
      simmpi::run_test(
          2,
          [](Context& ctx) {
            const std::vector<std::uint64_t> counts{4, 4};
            const std::vector<std::uint64_t> displs{0, 4};
            const std::vector<std::byte> send(8);
            // recv buffer is 5 bytes but the counts promise 8.
            std::vector<std::byte> recv(5);
            ctx.comm.alltoallv(send, counts, displs, recv, counts, displs);
          },
          nullptr, &checker),
      mutil::CommError);

  ASSERT_GE(report.count("alltoallv-local-bounds"), 1u);
  const Diagnostic d = report.first("alltoallv-local-bounds");
  EXPECT_EQ(d.ranks.size(), 1u);
  EXPECT_NE(d.message.find("exceeds the recv buffer"), std::string::npos);
}

// --- progress watchdog ----------------------------------------------------

CheckConfig fast_watchdog() {
  CheckConfig cfg;
  cfg.watchdog_interval_ms = 20;
  cfg.watchdog_stalls = 2;
  return cfg;
}

TEST(CheckDeadlock, NonblockingWaitCycleIsDetectedAndAborted) {
  Report report;
  JobChecker checker(report, fast_watchdog());
  try {
    simmpi::run_test(
        2,
        [](Context& ctx) {
          // Two-rank cycle: rank 0 waits on an exchange rank 1 never
          // starts, while rank 1 waits in a barrier rank 0 never enters.
          if (ctx.rank() == 0) {
            const std::vector<std::byte> send(8);
            std::vector<std::byte> recv(8);
            const std::vector<std::uint64_t> counts{4, 4}, displs{0, 4};
            simmpi::Request r =
                ctx.comm.ialltoallv(send, counts, displs, recv);
            r.wait();
          } else {
            ctx.comm.barrier();
          }
        },
        nullptr, &checker);
    FAIL() << "deadlocked job returned";
  } catch (const mutil::CommError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }

  ASSERT_EQ(report.count("deadlock"), 1u);
  const Diagnostic d = report.first("deadlock");
  std::vector<int> ranks = d.ranks;
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1}));
  EXPECT_NE(d.message.find("rank 0: blocked in ialltoallv.wait"),
            std::string::npos);
  EXPECT_NE(d.message.find("rank 1: blocked in barrier"), std::string::npos);
  EXPECT_NE(d.message.find("wait-for cycle"), std::string::npos);
}

TEST(CheckDeadlock, FinishedRankLeavesCollectiveHanging) {
  Report report;
  JobChecker checker(report, fast_watchdog());
  EXPECT_THROW(
      simmpi::run_test(
          2,
          [](Context& ctx) {
            if (ctx.rank() == 1) ctx.comm.barrier();  // rank 0 already left
          },
          nullptr, &checker),
      mutil::CommError);

  ASSERT_EQ(report.count("deadlock"), 1u);
  const Diagnostic d = report.first("deadlock");
  EXPECT_EQ(d.ranks, std::vector<int>{1});
  EXPECT_NE(d.message.find("rank 0: finished"), std::string::npos);
}

TEST(CheckDeadlock, HealthyJobRaisesNoFalsePositives) {
  Report report;
  JobChecker checker(report, fast_watchdog());
  simmpi::run_test(
      4,
      [](Context& ctx) {
        for (int i = 0; i < 50; ++i) {
          ctx.comm.barrier();
          // A rank blocked in a non-blocking wait is not deadlocked
          // either.
          simmpi::Request vote = ctx.comm.iallreduce_u64(
              static_cast<std::uint64_t>(i), simmpi::Op::kMax);
          vote.wait();
          ctx.comm.allreduce_u64(1, simmpi::Op::kSum);
        }
      },
      nullptr, &checker);
  EXPECT_TRUE(report.empty()) << report.text();
}

TEST(CheckDeadlock, ReleasedWaiterIsNotAStallUntilItBlocksAgain) {
  // Drives the watchdog directly: a rank whose wait was released but
  // whose thread has not run yet must not make a healthy job look
  // deadlocked, however long the host takes to schedule it.
  Report report;
  const CheckConfig cfg = fast_watchdog();
  JobChecker checker(report, cfg);
  checker.reset(3);
  std::atomic<bool> aborted{false};
  checker.start_watchdog([&](const std::string&) { aborted = true; });
  std::vector<check::BlockedState> previous;
  for (int r = 0; r < 3; ++r) {
    previous.push_back(checker.block_enter(r, "barrier", 7, 1.0));
  }
  const std::vector<int> rank1{1};
  checker.mark_released(rank1);
  std::this_thread::sleep_for(std::chrono::milliseconds(
      cfg.watchdog_interval_ms * (cfg.watchdog_stalls + 4)));
  EXPECT_FALSE(aborted.load());
  EXPECT_TRUE(report.empty()) << report.text();

  // Rank 1 leaves and blocks in a new wait: the mark is gone with the
  // old one, and a mark for some other wait does not apply to it.
  checker.block_exit(1, previous[1]);
  (void)checker.block_enter(1, "barrier", 8, 2.0);
  checker.mark_released(rank1, "ialltoallv.wait", 8);
  for (int i = 0; i < 500 && !aborted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  checker.stop_watchdog();
  EXPECT_TRUE(aborted.load());
  EXPECT_EQ(report.count("deadlock"), 1u);
}

// --- lifecycle auditor ----------------------------------------------------

TEST(CheckLifecycle, LeakedContainerPageIsReportedWithPhase) {
  Report report;
  JobChecker checker(report);
  testing::internal::CaptureStderr();
  simmpi::run_test(
      2,
      [](Context& ctx) {
        if (ctx.rank() != 0) return;
        const stats::PhaseScope phase("map");
        // Deliberate permanent leak: the container (and its tracked
        // page) must outlive the job's Tracker, so it is never deleted.
#ifdef MIMIR_HAVE_LSAN
        __lsan_disable();
#endif
        auto* leaked = new mimir::KVContainer(ctx.tracker, 1024);
#ifdef MIMIR_HAVE_LSAN
        __lsan_enable();
#endif
        leaked->append("key", "value");
      },
      nullptr, &checker);
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(report.count("page-leak"), 1u);
  const Diagnostic d = report.first("page-leak");
  EXPECT_EQ(d.ranks, std::vector<int>{0});
  EXPECT_EQ(d.phase, "map");
  EXPECT_NE(d.message.find("phase 'map'"), std::string::npos);
  // simmpi::run prints each new diagnostic once, after the join.
  EXPECT_NE(err.find("[WARN] mimir-check: " + d.text() + "\n"),
            std::string::npos)
      << err;
}

TEST(CheckLifecycle, CleanJobAuditsClean) {
  Report report;
  JobChecker checker(report);
  simmpi::run_test(
      2,
      [](Context& ctx) {
        mimir::KVContainer kvc(ctx.tracker, 1024);
        for (int i = 0; i < 100; ++i) {
          kvc.append("key" + std::to_string(i), "value");
        }
        kvc.clear();
      },
      nullptr, &checker);
  EXPECT_TRUE(report.empty()) << report.text();
}

TEST(CheckLifecycle, DoubleReleaseDrivesBalanceNegative) {
  Report report;
  check::LifecycleAuditor auditor(report, 3);
  auditor.on_charge(128);
  auditor.on_release(128);
  auditor.on_release(64);  // released more than ever charged

  ASSERT_EQ(report.count("tracker-double-release"), 1u);
  EXPECT_EQ(report.first("tracker-double-release").ranks,
            std::vector<int>{3});
  // Reported once, not per release.
  auditor.on_release(8);
  EXPECT_EQ(report.count("tracker-double-release"), 1u);
}

TEST(CheckLifecycle, UnknownPageReleaseIsIgnored) {
  Report report;
  check::LifecycleAuditor auditor(report, 0);
  const int dummy = 0;
  auditor.on_page_release(&dummy, 64);  // allocated before binding
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(auditor.live_pages(), 0u);
}

// --- checker equivalence --------------------------------------------------

void wordish_job(Context& ctx) {
  mimir::Job job(ctx, {});
  job.map_custom([&](mimir::Emitter& out) {
    for (int i = 0; i < 300; ++i) {
      out.emit("key" + std::to_string((i * 7 + ctx.rank()) % 37),
               std::string("v").append(std::to_string(i % 5)));
    }
  });
  job.reduce([](std::string_view key, mimir::ValueReader& values,
                mimir::Emitter& out) {
    std::uint64_t n = 0;
    std::string_view v;
    while (values.next(v)) ++n;
    out.emit(key, std::to_string(n));
  });
  ctx.comm.clock_sync();
}

TEST(CheckEquivalence, SimulatedResultsAreBitIdenticalWithCheckerOn) {
  const auto plain = simmpi::run_test(4, wordish_job);

  Report report;
  JobChecker checker(report);
  const auto checked = simmpi::run_test(4, wordish_job, nullptr, &checker);

  EXPECT_TRUE(report.empty()) << report.text();
  // Exact equality on purpose: the analyzers must never advance a
  // simulated clock or charge a tracker.
  EXPECT_EQ(plain.sim_time, checked.sim_time);
  EXPECT_EQ(plain.node_peak, checked.node_peak);
  EXPECT_EQ(plain.node_peaks, checked.node_peaks);
  EXPECT_EQ(plain.shuffle_bytes, checked.shuffle_bytes);
  EXPECT_EQ(plain.io.bytes_read, checked.io.bytes_read);
  EXPECT_EQ(plain.io.bytes_written, checked.io.bytes_written);
}

TEST(CheckEquivalence, SplitJobsVerifyCleanAndStayIdentical) {
  const auto workload = [](Context& ctx) {
    auto sub = ctx.comm.split(ctx.rank() % 2, ctx.rank());
    sub->allreduce_u64(static_cast<std::uint64_t>(ctx.rank()),
                       simmpi::Op::kSum);
    sub->barrier();
    ctx.comm.barrier();
  };
  const auto plain = simmpi::run_test(4, workload);

  Report report;
  JobChecker checker(report);
  const auto checked = simmpi::run_test(4, workload, nullptr, &checker);

  EXPECT_TRUE(report.empty()) << report.text();
  EXPECT_EQ(plain.sim_time, checked.sim_time);
}

TEST(CheckCollective, SplitChildDiagnosticsNameGlobalRanks) {
  Report report;
  JobChecker checker(report);
  EXPECT_THROW(
      simmpi::run_test(
          4,
          [](Context& ctx) {
            // Ranks {2, 3} form the color-1 child; global rank 3 (child
            // rank 1) enters the wrong collective inside it.
            auto sub = ctx.comm.split(ctx.rank() / 2, ctx.rank());
            if (ctx.rank() == 3) {
              sub->barrier();
            } else {
              sub->allreduce_u64(1, simmpi::Op::kSum);
            }
          },
          nullptr, &checker),
      mutil::CommError);

  ASSERT_GE(report.count("collective-mismatch"), 1u);
  const Diagnostic d = report.first("collective-mismatch");
  EXPECT_EQ(d.ranks, std::vector<int>{3});
}

// --- enablement -----------------------------------------------------------

TEST(CheckEnv, EnvFlagParsing) {
  ASSERT_EQ(setenv("MIMIR_CHECK", "1", 1), 0);
  EXPECT_TRUE(check::env_enabled());
  ASSERT_EQ(setenv("MIMIR_CHECK", "off", 1), 0);
  EXPECT_FALSE(check::env_enabled());
  ASSERT_EQ(setenv("MIMIR_CHECK", "yes", 1), 0);
  EXPECT_TRUE(check::env_enabled());
  ASSERT_EQ(unsetenv("MIMIR_CHECK"), 0);
  EXPECT_FALSE(check::env_enabled());
}

}  // namespace
