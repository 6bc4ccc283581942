// mimir-race tests: the happens-before engine unit-checked in isolation
// (deterministic clocks and access sites), the annotation API exercised
// through real rank threads (barrier / Request::wait / sched-handoff ordered
// accesses are race-free, unordered ones are reported with both sites'
// rank, phase, and sim-time), the PR-2 shared-capture regression, the
// bit-identity guarantee (results identical with the detector on or
// off, composed with sched graphs and fault-injected recovery), and the
// cross-run determinism digest.
#include "check/race.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "inject/fault.hpp"
#include "memtrack/tracker.hpp"
#include "mimir/job.hpp"
#include "mutil/config.hpp"
#include "sched/scheduler.hpp"
#include "simmpi/runtime.hpp"
#include "stats/registry.hpp"

namespace {

using check::CheckConfig;
using check::DeterminismDigest;
using check::Diagnostic;
using check::DigestEntry;
using check::JobChecker;
using check::RaceDetector;
using check::Report;
using check::VectorClock;
using sched::Graph;
using sched::GraphOptions;
using sched::JobNode;
using sched::NodeCtx;
using simmpi::Context;

CheckConfig race_config() {
  CheckConfig cfg;
  cfg.race = true;
  return cfg;
}

std::string_view u64_view(const std::uint64_t& v) {
  return {reinterpret_cast<const char*>(&v), 8};
}

// --- vector clock ---------------------------------------------------------

TEST(RaceVectorClock, JoinIsPairwiseMaxAndTickIsPerComponent) {
  VectorClock a(3);
  VectorClock b(3);
  a.tick(0);
  a.tick(0);
  b.tick(1);
  b.join(a);
  EXPECT_EQ(b[0], 2u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 0u);
  a.join(b);  // join never decreases a component
  EXPECT_EQ(a[0], 2u);
  EXPECT_EQ(a[1], 1u);
  EXPECT_EQ(a.snapshot(), (std::vector<std::uint64_t>{2, 1, 0}));
}

// --- FastTrack epoch rule (detector driven directly) ----------------------

TEST(RaceDetectorUnit, CollectiveSyncOrdersCrossRankWrites) {
  Report report;
  RaceDetector det(report);
  det.reset(2);
  int region = 0;
  det.region_register(&region, sizeof(region), "unit.region");

  det.access(&region, 0, /*write=*/true, 1.0, "map");
  const std::vector<int> world{0, 1};
  det.collective_sync(world);
  det.access(&region, 1, /*write=*/true, 2.0, "reduce");
  EXPECT_TRUE(report.empty()) << report.text();

  // A third write with no edge after rank 1's write is the race.
  det.access(&region, 0, /*write=*/true, 3.0, "reduce");
  ASSERT_EQ(report.count("write-write-race"), 1u);
  EXPECT_EQ(det.races(), 1u);
}

TEST(RaceDetectorUnit, UnorderedWriteWriteNamesBothSites) {
  Report report;
  RaceDetector det(report);
  det.reset(2);
  int region = 0;
  det.region_register(&region, sizeof(region), "unit.region");

  det.access(&region, 0, /*write=*/true, 1.5, "map/aggregate");
  det.access(&region, 1, /*write=*/true, 2.5, "reduce");

  ASSERT_EQ(report.count("write-write-race"), 1u);
  const Diagnostic d = report.first("write-write-race");
  EXPECT_EQ(d.ranks, (std::vector<int>{0, 1}));
  EXPECT_EQ(d.phase, "reduce");
  EXPECT_NE(d.message.find("'unit.region'"), std::string::npos);
  EXPECT_NE(d.message.find("rank 0 wrote in phase 'map/aggregate' at t=1.5s"),
            std::string::npos);
  EXPECT_NE(d.message.find("rank 1 wrote in phase 'reduce' at t=2.5s"),
            std::string::npos);
  EXPECT_NE(d.message.find("no happens-before edge"), std::string::npos);
}

TEST(RaceDetectorUnit, ConcurrentReadersDoNotRace) {
  Report report;
  RaceDetector det(report);
  det.reset(4);
  int region = 0;
  det.region_register(&region, sizeof(region), "unit.region");
  for (int r = 0; r < 4; ++r) {
    det.access(&region, r, /*write=*/false, 1.0, "map");
  }
  EXPECT_TRUE(report.empty()) << report.text();

  // ...but a write unordered after any of those reads is reported.
  det.access(&region, 2, /*write=*/true, 2.0, "map");
  ASSERT_EQ(report.count("read-write-race"), 1u);
  const Diagnostic d = report.first("read-write-race");
  EXPECT_NE(d.message.find("read in phase 'map'"), std::string::npos);
  EXPECT_EQ(d.ranks.size(), 2u);
}

TEST(RaceDetectorUnit, HandoffPublishAcquireOrdersConsumers) {
  Report report;
  RaceDetector det(report);
  det.reset(2);
  int region = 0;
  det.region_register(&region, sizeof(region), "unit.region");
  constexpr std::uint64_t kKey = 42;

  det.access(&region, 0, /*write=*/true, 1.0, "produce");
  det.handoff_publish(0, kKey);
  det.handoff_acquire(1, kKey);
  det.access(&region, 1, /*write=*/false, 2.0, "consume");
  EXPECT_TRUE(report.empty()) << report.text();

  // Acquiring a key nobody published is a no-op, not an edge.
  det.handoff_acquire(1, kKey + 1);
  det.access(&region, 1, /*write=*/true, 3.0, "consume");
  det.access(&region, 0, /*write=*/false, 4.0, "produce");
  EXPECT_EQ(report.count("read-write-race"), 1u);
}

TEST(RaceDetectorUnit, PageLifecycleTransfersNeedAnEdge) {
  Report report;
  RaceDetector det(report);
  det.reset(2);
  int block = 0;

  // Alloc on rank 0, release on rank 1 with a handoff edge between:
  // clean ownership transfer.
  constexpr std::uint64_t kKey = 7;
  det.page_alloc(0, &block, 64, "kv.page", 1.0, "map");
  det.handoff_publish(0, kKey);
  det.handoff_acquire(1, kKey);
  det.page_release(1, &block, 2.0, "map");
  EXPECT_TRUE(report.empty()) << report.text();

  // Same transfer without the edge: the release races the alloc write.
  det.page_alloc(0, &block, 64, "kv.page", 3.0, "map");
  det.page_release(1, &block, 4.0, "reduce");
  ASSERT_EQ(report.count("write-write-race"), 1u);
  EXPECT_NE(report.first("write-write-race").message.find("'page:kv.page'"),
            std::string::npos);

  // Release unregisters: later accesses to the stale base are ignored.
  det.access(&block, 0, /*write=*/true, 5.0, "map");
  EXPECT_EQ(report.count("write-write-race"), 1u);
}

TEST(RaceDetectorUnit, ReportsPerRegionAreCapped) {
  Report report;
  RaceDetector det(report, /*max_region_reports=*/2);
  det.reset(2);
  int region = 0;
  det.region_register(&region, sizeof(region), "unit.region");
  for (int i = 0; i < 5; ++i) {
    det.access(&region, i % 2, /*write=*/true, 1.0, "map");
  }
  EXPECT_EQ(det.races(), 4u) << "every race counted";
  EXPECT_EQ(report.count("write-write-race"), 2u) << "reports capped";
}

// --- annotation API through real rank threads -----------------------------

TEST(RaceShared, BarrierSeparatedWritesAreRaceFree) {
  Report report;
  JobChecker checker(report, race_config());
  check::Shared<std::uint64_t> total("race.total");
  simmpi::run_test(
      4,
      [&](Context& ctx) {
        // Token-style protocol: one writer per round, rounds separated
        // by barriers, so every write is ordered after every other.
        for (int turn = 0; turn < ctx.size(); ++turn) {
          if (ctx.rank() == turn) {
            total.update([](std::uint64_t& v) { ++v; });
          }
          ctx.comm.barrier();
        }
        if (ctx.rank() == 0) {
          EXPECT_EQ(total.read(), 4u);
        }
      },
      nullptr, &checker);
  EXPECT_TRUE(report.empty()) << report.text();
  EXPECT_EQ(total.unchecked(), 4u);
}

TEST(RaceShared, UnorderedCrossRankWritesAreReported) {
  Report report;
  JobChecker checker(report, race_config());
  check::Shared<std::uint64_t> hot("race.hot");
  simmpi::run_test(
      2,
      [&](Context& ctx) {
        hot.write(static_cast<std::uint64_t>(ctx.rank()));
      },
      nullptr, &checker);

  ASSERT_EQ(report.count("write-write-race"), 1u);
  const Diagnostic d = report.first("write-write-race");
  EXPECT_EQ(d.ranks, (std::vector<int>{0, 1}));
  EXPECT_NE(d.message.find("'race.hot'"), std::string::npos);
  EXPECT_NE(d.message.find("rank 0 wrote"), std::string::npos);
  EXPECT_NE(d.message.find("rank 1 wrote"), std::string::npos);
  EXPECT_NE(d.message.find("at t="), std::string::npos);
}

// Regression for the PR 2 shared-capture bug: every rank accumulated
// into one by-reference captured variable with no synchronization. The
// detector must name both access sites with their rank and phase (the
// static twin of this assertion is lint_capture.py flagging
// tests/check/fixtures/racy_capture.cpp, wired as a WILL_FAIL ctest).
TEST(RaceShared, SharedCaptureAccumulatorRegressionNamesBothSites) {
  Report report;
  JobChecker checker(report, race_config());
  check::Shared<std::uint64_t> sum("pr2.word_total");
  simmpi::run_test(
      2,
      [&](Context& ctx) {
        const stats::PhaseScope phase(ctx.rank() == 0 ? "map" : "reduce");
        sum.update([&](std::uint64_t& v) {
          v += static_cast<std::uint64_t>(10 + ctx.rank());
        });
      },
      nullptr, &checker);

  ASSERT_EQ(report.count("write-write-race"), 1u);
  const Diagnostic d = report.first("write-write-race");
  EXPECT_EQ(d.ranks, (std::vector<int>{0, 1}));
  // Both conflicting sites appear with their own rank AND phase: rank 0
  // was in 'map', rank 1 in 'reduce', whichever order they ran.
  EXPECT_NE(d.message.find("rank 0 wrote in phase 'map'"),
            std::string::npos);
  EXPECT_NE(d.message.find("rank 1 wrote in phase 'reduce'"),
            std::string::npos);
}

TEST(RaceShared, AccessorsAreUncheckedOutsideAJob) {
  // No job bound: Shared<T> degrades to a plain variable (and must not
  // crash touching a detector that does not exist).
  check::Shared<int> value("race.unbound", 3);
  EXPECT_EQ(value.read(), 3);
  value.write(4);
  value.update([](int& v) { v += 1; });
  EXPECT_EQ(value.unchecked(), 5);
  EXPECT_EQ(check::current_race_detector(), nullptr);
}

// --- sched integration ----------------------------------------------------

/// produce -> sink chain whose consume hooks fold into `sink`.
Graph chain_graph(std::shared_ptr<std::map<std::uint64_t, std::uint64_t>> out,
                  std::shared_ptr<std::mutex> out_mutex) {
  Graph g;
  JobNode produce;
  produce.name = "produce";
  produce.producer = [](NodeCtx& nctx, mimir::Emitter& emit) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      if (static_cast<int>(i) % nctx.exec.size() != nctx.exec.rank()) continue;
      emit.emit(u64_view(i % 8), std::uint64_t{1});
    }
  };
  JobNode sink;
  sink.name = "sink";
  sink.partial = [](std::string_view, std::string_view a, std::string_view b,
                    std::string& merged) {
    merged.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
  };
  sink.consume = [out, out_mutex](NodeCtx&, mimir::KVContainer& kvs) {
    const std::scoped_lock lock(*out_mutex);
    kvs.scan([&](const mimir::KVView& kv) {
      (*out)[mimir::as_u64(kv.key)] += mimir::as_u64(kv.value);
    });
  };
  const int a = g.add(produce);
  const int b = g.add(sink);
  g.add_edge(a, b);
  return g;
}

TEST(RaceSched, HandoffChainRunsRaceFreeAndBitIdentical) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;

  auto run_once = [&](check::JobChecker* checker) {
    auto out = std::make_shared<std::map<std::uint64_t, std::uint64_t>>();
    auto mtx = std::make_shared<std::mutex>();
    const Graph g = chain_graph(out, mtx);
    pfs::FileSystem fs(machine, 4);
    const auto outcome = sched::run_graph(4, machine, fs, g, {}, nullptr,
                                          checker);
    return std::pair{outcome.stats, *out};
  };

  const auto [plain_stats, plain_out] = run_once(nullptr);
  Report report;
  JobChecker checker(report, race_config());
  const auto [race_stats, race_out] = run_once(&checker);

  EXPECT_TRUE(report.empty()) << report.text();
  EXPECT_EQ(plain_out, race_out);
  EXPECT_EQ(plain_stats.sim_time, race_stats.sim_time);
  EXPECT_EQ(plain_stats.node_peak, race_stats.node_peak);
  EXPECT_EQ(plain_stats.shuffle_bytes, race_stats.shuffle_bytes);
}

TEST(RaceSched, ReadWriteAcrossConcurrentWaveGroupsIsReported) {
  // Two independent branches admitted concurrently: their rank groups
  // share no collectives, so a write in one group and a read in the
  // other have no happens-before edge — exactly the cross-group hazard
  // the planner's component isolation is meant to prevent users from
  // creating by hand.
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  machine.ranks_per_node = 2;

  check::Shared<std::uint64_t> leak("race.cross_group");
  Graph g;
  JobNode writer;
  writer.name = "writer";
  writer.producer = [&leak](NodeCtx& nctx, mimir::Emitter& emit) {
    if (nctx.world_rank == 0) leak.write(1);
    emit.emit(u64_view(0), std::uint64_t{1});
  };
  JobNode reader;
  reader.name = "reader";
  reader.producer = [&leak](NodeCtx& nctx, mimir::Emitter& emit) {
    if (nctx.world_rank == 2) (void)leak.read();
    emit.emit(u64_view(1), std::uint64_t{1});
  };
  (void)g.add(writer);
  (void)g.add(reader);

  GraphOptions opts;
  opts.max_concurrency = 2;
  opts.memory_budget = 64ull << 20;

  Report report;
  JobChecker checker(report, race_config());
  pfs::FileSystem fs(machine, 4);
  const auto outcome = sched::run_graph(4, machine, fs, g, opts, nullptr,
                                        &checker);
  ASSERT_EQ(outcome.plan.waves[0].groups.size(), 2u)
      << "test needs the branches concurrent";
  ASSERT_EQ(report.count("read-write-race"), 1u) << report.text();
  const Diagnostic d = report.first("read-write-race");
  EXPECT_EQ(d.ranks, (std::vector<int>{0, 2}));
  EXPECT_NE(d.message.find("'race.cross_group'"), std::string::npos);
}

// --- bit-identity ---------------------------------------------------------

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

TEST(RaceEquivalence, ResultsAreBitIdenticalWithTheDetectorOn) {
  const auto plain = simmpi::run_test(4, wordish_job);

  Report report;
  JobChecker checker(report, race_config());
  const auto raced = simmpi::run_test(4, wordish_job, nullptr, &checker);

  EXPECT_TRUE(report.empty()) << report.text();
  // Exact equality on purpose: the detector is accounting-only — it
  // must never advance a simulated clock or charge a tracker.
  EXPECT_EQ(plain.sim_time, raced.sim_time);
  EXPECT_EQ(plain.node_peak, raced.node_peak);
  EXPECT_EQ(plain.node_peaks, raced.node_peaks);
  EXPECT_EQ(plain.shuffle_bytes, raced.shuffle_bytes);
  EXPECT_EQ(plain.io.bytes_read, raced.io.bytes_read);
  EXPECT_EQ(plain.io.bytes_written, raced.io.bytes_written);
}

TEST(RaceEquivalence, ComposesWithFaultInjectedRecovery) {
  // A node crash plus retry under the race detector: same attempts,
  // same simulated results as the checked-but-unraced run.
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  machine.ranks_per_node = 2;
  const inject::FaultPlan plan = inject::FaultPlan::parse("node_crash:1@map");

  auto run_once = [&](const CheckConfig& cfg) {
    auto out = std::make_shared<std::map<std::uint64_t, std::uint64_t>>();
    auto mtx = std::make_shared<std::mutex>();
    const Graph g = chain_graph(out, mtx);
    pfs::FileSystem fs(machine, 4);
    Report report;
    JobChecker checker(report, cfg);
    const auto outcome = sched::run_graph_with_recovery(
        4, machine, fs, g, {}, {}, &plan, nullptr, &checker);
    EXPECT_EQ(report.count("write-write-race") +
                  report.count("read-write-race"),
              0u)
        << report.text();
    return std::pair{outcome, *out};
  };

  const auto [checked, checked_out] = run_once(CheckConfig{});
  const auto [raced, raced_out] = run_once(race_config());
  EXPECT_GE(checked.attempts, 2);
  EXPECT_EQ(checked.attempts, raced.attempts);
  EXPECT_EQ(checked_out, raced_out);
  EXPECT_EQ(checked.stats.sim_time, raced.stats.sim_time);
  EXPECT_EQ(checked.stats.node_peak, raced.stats.node_peak);
}

// --- cross-run determinism checker ----------------------------------------

void seeded_job(Context& ctx, std::uint64_t payload_bytes) {
  const stats::PhaseScope phase("iterate");
  ctx.comm.barrier();
  (void)ctx.comm.allreduce_u64(1, simmpi::Op::kSum);
  // The divergence knob: a root payload whose SIZE depends on the seed
  // (sizes are part of the collective fingerprint; values are not).
  std::vector<std::byte> blob(payload_bytes);
  ctx.comm.bcast(blob, 0);
  ctx.comm.barrier();
}

TEST(RaceDeterminism, IdenticalRunsProduceIdenticalDigests) {
  Report report;
  JobChecker checker(report, race_config());
  simmpi::run_test(
      4, [](Context& ctx) { seeded_job(ctx, 16); }, nullptr, &checker);
  const DeterminismDigest first = check::determinism_digest(checker);

  simmpi::run_test(
      4, [](Context& ctx) { seeded_job(ctx, 16); }, nullptr, &checker);
  const DeterminismDigest second = check::determinism_digest(checker);

  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.ranks.size(), 4u);
  EXPECT_GE(first.ranks[0].size(), 4u) << "one entry per collective";
  EXPECT_EQ(first.combined(), second.combined());
  EXPECT_EQ(check::compare_digests(first, second), std::nullopt);
}

TEST(RaceDeterminism, DivergentRunNamesFirstRankAndPhase) {
  Report report;
  JobChecker checker(report, race_config());
  simmpi::run_test(
      4, [](Context& ctx) { seeded_job(ctx, 16); }, nullptr, &checker);
  const DeterminismDigest first = check::determinism_digest(checker);

  simmpi::run_test(
      4, [](Context& ctx) { seeded_job(ctx, 32); }, nullptr, &checker);
  const DeterminismDigest second = check::determinism_digest(checker);

  EXPECT_NE(first.combined(), second.combined());
  const auto div = check::compare_digests(first, second);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->rank, 0) << "lowest diverging rank reported first";
  EXPECT_EQ(div->phase, "iterate");
  EXPECT_NE(div->detail.find("fingerprint differs"), std::string::npos);
  EXPECT_NE(div->detail.find("phase 'iterate'"), std::string::npos);
}

TEST(RaceDeterminism, StructuralMismatchesAreNamedDirectly) {
  DeterminismDigest a;
  a.ranks = {{DigestEntry{1, "map"}, DigestEntry{2, "reduce"}}};
  DeterminismDigest b;
  b.ranks = {{DigestEntry{1, "map"}}};

  const auto shorter = check::compare_digests(a, b);
  ASSERT_TRUE(shorter.has_value());
  EXPECT_EQ(shorter->rank, 0);
  EXPECT_EQ(shorter->index, 1u);
  EXPECT_EQ(shorter->phase, "reduce");
  EXPECT_NE(shorter->detail.find("2 collectives in one run, 1"),
            std::string::npos);

  DeterminismDigest wider = a;
  wider.ranks.emplace_back();
  const auto missing_rank = check::compare_digests(a, wider);
  ASSERT_TRUE(missing_rank.has_value());
  EXPECT_EQ(missing_rank->rank, 1);
  EXPECT_NE(missing_rank->detail.find("present in only one run"),
            std::string::npos);

  EXPECT_EQ(check::compare_digests(a, a), std::nullopt);
}

TEST(RaceDeterminism, DigestIsEmptyWithoutTheDetector) {
  Report report;
  JobChecker checker(report);  // race off
  simmpi::run_test(
      2, [](Context& ctx) { ctx.comm.barrier(); }, nullptr, &checker);
  EXPECT_EQ(checker.race(), nullptr);
  EXPECT_TRUE(check::determinism_digest(checker).empty());
}

// --- non-blocking collectives: frozen regions and the completion edge ----

// The buffers passed to ialltoallv belong to the operation between
// initiate and wait. The FastTrack epoch rule cannot catch a rank
// touching its *own* in-flight buffer (its clock always dominates its
// own epochs), so the detector freezes the region instead and reports
// any touch while frozen.
TEST(RaceNbFreeze, WriteAfterInitiateIsReportedAndThawedByCompletion) {
  Report report;
  RaceDetector det(report);
  det.reset(2);
  int region = 0;
  det.region_register(&region, sizeof(region), "nb.send");

  det.access(&region, 0, /*write=*/true, 1.0, "map");
  det.nb_initiate(&region, 0, /*op_writes=*/false, "ialltoallv", 2.0,
                  "map");
  det.access(&region, 0, /*write=*/true, 3.0, "map/aggregate");
  ASSERT_EQ(report.count("write-after-initiate"), 1u);
  const Diagnostic d = report.first("write-after-initiate");
  EXPECT_NE(d.message.find("'nb.send'"), std::string::npos);
  EXPECT_NE(d.message.find("ialltoallv"), std::string::npos);
  EXPECT_EQ(det.races(), 1u);

  // Completion thaws: the same write afterwards is clean.
  det.nb_complete(&region, 0, 4.0, "map");
  det.access(&region, 0, /*write=*/true, 5.0, "map");
  EXPECT_EQ(det.races(), 1u);
}

TEST(RaceNbFreeze, ReadOfInFlightSendBufferIsAllowed) {
  // The op only *reads* a send buffer, so a concurrent read is fine;
  // a receive buffer the op writes must not even be read.
  Report report;
  RaceDetector det(report);
  det.reset(1);
  int send = 0;
  int recv = 0;
  det.region_register(&send, sizeof(send), "nb.send");
  det.region_register(&recv, sizeof(recv), "nb.recv");

  det.nb_initiate(&send, 0, /*op_writes=*/false, "ialltoallv", 1.0, "map");
  det.nb_initiate(&recv, 0, /*op_writes=*/true, "ialltoallv", 1.0, "map");
  det.access(&send, 0, /*write=*/false, 2.0, "map");
  EXPECT_TRUE(report.empty()) << report.text();
  det.access(&recv, 0, /*write=*/false, 2.0, "map");
  ASSERT_EQ(report.count("read-after-initiate"), 1u);
  EXPECT_EQ(det.races(), 1u);
}

TEST(RaceNb, WriteToInFlightSendBufferIsCaughtThroughRealRanks) {
  Report report;
  JobChecker checker(report, race_config());
  simmpi::run_test(
      2,
      [](Context& ctx) {
        // TrackedBuffers register with the detector through the
        // lifecycle auditor's page hooks.
        memtrack::TrackedBuffer send(ctx.tracker, 16);
        memtrack::TrackedBuffer recv(ctx.tracker, 16);
        const std::vector<std::uint64_t> counts{8, 8}, displs{0, 8};
        simmpi::Request req =
            ctx.comm.ialltoallv(send.span(), counts, displs, recv.span());
        // Buggy: overwrite the buffer the in-flight exchange still owns.
        check::race_note_access(send.data(), /*write=*/true);
        req.wait();
      },
      nullptr, &checker);
  EXPECT_EQ(report.count("write-after-initiate"), 2u) << report.text();
}

TEST(RaceNb, WaiterIsOrderedAfterEveryInitiator) {
  // The happens-before edge lands at wait(), joining every initiator's
  // published clock: what rank 1 wrote before initiating is visible —
  // race-free — to rank 0 after its wait returns.
  Report report;
  JobChecker checker(report, race_config());
  check::Shared<std::uint64_t> value("nb.handoff");
  simmpi::run_test(
      2,
      [&](Context& ctx) {
        if (ctx.rank() == 1) value.write(5);
        simmpi::Request req = ctx.comm.iallreduce_u64(1, simmpi::Op::kSum);
        req.wait();
        if (ctx.rank() == 0) {
          EXPECT_EQ(value.read(), 5u);
        }
      },
      nullptr, &checker);
  EXPECT_TRUE(report.empty()) << report.text();
}

TEST(RaceNb, OverlappedShuffleIsRaceFreeAndBitIdentical) {
  // The double-buffered shuffle must be clean under the detector, and
  // the per-rank intermediate KV sequence must be byte-identical with
  // overlap on or off (the bit-identity acceptance criterion, enforced
  // here under the race detector as well).
  auto run_once = [](bool overlap, check::JobChecker* checker) {
    auto per_rank =
        std::make_shared<std::vector<std::vector<std::string>>>(4);
    mimir::JobConfig cfg;
    cfg.page_size = 1 << 10;
    cfg.comm_buffer = 256;
    cfg.overlap = overlap;
    simmpi::run_test(
        4,
        [&](Context& ctx) {
          mimir::Job job(ctx, cfg);
          job.map_custom([&](mimir::Emitter& out) {
            for (int i = 0; i < 300; ++i) {
              const int k = (ctx.rank() * 300 + i) % 37;
              out.emit("key" + std::to_string(k),
                       "value" + std::to_string(i));
            }
          });
          auto& mine = (*per_rank)[static_cast<std::size_t>(ctx.rank())];
          job.intermediate().scan([&](const mimir::KVView& kv) {
            mine.push_back(std::string(kv.key) + "=" +
                           std::string(kv.value));
          });
        },
        nullptr, checker);
    return *per_rank;
  };

  const auto blocking_plain = run_once(false, nullptr);
  Report report;
  JobChecker checker(report, race_config());
  const auto overlapped_checked = run_once(true, &checker);
  EXPECT_TRUE(report.empty()) << report.text();
  EXPECT_EQ(checker.race()->races(), 0u);
  EXPECT_EQ(blocking_plain, overlapped_checked);

  Report report2;
  JobChecker checker2(report2, race_config());
  const auto blocking_checked = run_once(false, &checker2);
  EXPECT_TRUE(report2.empty()) << report2.text();
  EXPECT_EQ(blocking_plain, blocking_checked);
}

// --- enablement -----------------------------------------------------------

TEST(RaceConfig, ReadsMimirRaceKey) {
  mutil::Config cfg;
  cfg.set("mimir.race", "1");
  EXPECT_TRUE(CheckConfig::from(cfg).race);
  cfg.set("mimir.race", "0");
  EXPECT_FALSE(CheckConfig::from(cfg).race);
}

TEST(RaceConfig, CheckerOwnsADetectorOnlyWhenEnabled) {
  Report report;
  const JobChecker off(report);
  EXPECT_EQ(off.race(), nullptr);
  const JobChecker on(report, race_config());
  EXPECT_NE(on.race(), nullptr);
}

TEST(RaceEnv, EnvFlagParsing) {
  ASSERT_EQ(setenv("MIMIR_RACE", "1", 1), 0);
  EXPECT_TRUE(check::race_env_enabled());
  ASSERT_EQ(setenv("MIMIR_RACE", "off", 1), 0);
  EXPECT_FALSE(check::race_env_enabled());
  ASSERT_EQ(setenv("MIMIR_RACE", "yes", 1), 0);
  EXPECT_TRUE(check::race_env_enabled());
  ASSERT_EQ(setenv("MIMIR_RACE", "false", 1), 0);
  EXPECT_FALSE(check::race_env_enabled());
  ASSERT_EQ(unsetenv("MIMIR_RACE"), 0);
  EXPECT_FALSE(check::race_env_enabled());
}

}  // namespace
