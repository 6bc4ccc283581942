// mimir.prefetch end-to-end: the knob parses, results / intermediate
// placement / checkpoint shard bytes are bit-identical prefetch on or
// off (including under the race detector), the write-behind OOC spill
// changes nothing, and an injected crash between prefetch issue and
// wait — or at a write-behind flush — recovers to the exact
// undisturbed output.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/wordcount.hpp"
#include "check/checker.hpp"
#include "check/report.hpp"
#include "inject/fault.hpp"
#include "mimir/checkpoint.hpp"
#include "mimir/job.hpp"
#include "mimir/recovery.hpp"
#include "mutil/config.hpp"
#include "simmpi/runtime.hpp"

namespace {

using inject::FaultPlan;
using mimir::Emitter;
using mimir::Job;
using mimir::JobConfig;
using mimir::KVView;
using mimir::RecoveryJob;
using mimir::RecoveryOutcome;
using simmpi::Context;

constexpr int kRanks = 3;
constexpr int kFiles = 3;

check::CheckConfig race_config() {
  check::CheckConfig cfg;
  cfg.race = true;
  return cfg;
}

simtime::MachineProfile profile_with_io() {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e6;
  machine.pfs_client_bandwidth = 1e6;
  return machine;
}

/// Small chunks so every file runs a deep read-ahead pipeline.
JobConfig small_cfg(bool prefetch) {
  JobConfig cfg;
  cfg.page_size = 4 << 10;
  cfg.comm_buffer = 4 << 10;
  cfg.input_chunk = 512;
  cfg.prefetch = prefetch;
  cfg.prefetch_depth = 3;
  return cfg;
}

std::vector<std::string> part_names(const std::string& prefix, int count) {
  std::vector<std::string> files;
  for (int f = 0; f < count; ++f) {
    files.push_back(prefix + "/part" + std::to_string(f));
  }
  return files;
}

/// Generate the shared dataset on rank 0 (names are deterministic).
void generate_input(Context& ctx, const std::string& prefix) {
  if (ctx.rank() == 0) {
    apps::wc::GenOptions gen;
    gen.total_bytes = 24 << 10;
    gen.num_files = kFiles;
    (void)apps::wc::generate_uniform(ctx.fs, prefix, gen);
  }
  ctx.comm.barrier();
}

using PerRank = std::vector<std::vector<std::string>>;

/// WordCount over text files; returns each rank's reduced output in
/// scan order — placement-sensitive, so equality across modes proves
/// intermediate placement, not just global counts.
PerRank run_wc(bool prefetch, check::JobChecker* checker) {
  auto per_rank = std::make_shared<PerRank>(kRanks);
  simmpi::run_test(
      kRanks,
      [&](Context& ctx) {
        generate_input(ctx, "wc");
        Job job(ctx, small_cfg(prefetch));
        job.map_text_files(part_names("wc", kFiles), apps::wc::map_words);
        job.reduce(apps::wc::reduce_counts);
        auto& mine = (*per_rank)[static_cast<std::size_t>(ctx.rank())];
        job.output().scan([&](const KVView& kv) {
          mine.push_back(std::string(kv.key) + "=" +
                         std::to_string(mimir::as_u64(kv.value)));
        });
      },
      nullptr, checker);
  return *per_rank;
}

TEST(JobPrefetch, ConfigKnobReachesTheJob) {
  mutil::Config cfg;
  cfg.set("mimir.prefetch", "1");
  cfg.set("mimir.prefetch_depth", "4");
  JobConfig parsed = JobConfig::from(cfg);
  EXPECT_TRUE(parsed.prefetch);
  EXPECT_EQ(parsed.prefetch_depth, 4);

  cfg.set("mimir.prefetch", "0");
  cfg.set("mimir.prefetch_depth", "0");
  parsed = JobConfig::from(cfg);
  EXPECT_FALSE(parsed.prefetch);
  EXPECT_EQ(parsed.prefetch_depth, 1) << "depth clamps to at least 1";

  EXPECT_FALSE(JobConfig{}.prefetch);
  EXPECT_EQ(JobConfig{}.prefetch_depth, 2);
}

TEST(JobPrefetch, BitIdenticalResultsAndIntermediateAcrossModes) {
  const PerRank blocking = run_wc(false, nullptr);
  const PerRank prefetched = run_wc(true, nullptr);
  EXPECT_EQ(blocking, prefetched);
  std::size_t total = 0;
  for (const auto& rank : blocking) total += rank.size();
  EXPECT_GT(total, 0u);

  // Same equality with the race detector watching both modes: the
  // prefetch buffers freeze/thaw cleanly and change nothing.
  for (const bool prefetch : {false, true}) {
    check::Report report;
    check::JobChecker checker(report, race_config());
    EXPECT_EQ(run_wc(prefetch, &checker), blocking)
        << "prefetch=" << prefetch;
    EXPECT_TRUE(report.empty())
        << "prefetch=" << prefetch << "\n"
        << report.text();
  }
}

TEST(JobPrefetch, CheckpointShardBytesIdenticalAcrossModes) {
  const auto machine = profile_with_io();
  const auto shards_for = [&](bool prefetch) {
    pfs::FileSystem fs(machine, kRanks);
    simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
      generate_input(ctx, "in");
      Job job(ctx, small_cfg(prefetch));
      job.map_text_files(part_names("in", kFiles), apps::wc::map_words);
      mimir::checkpoint_job(job, "pf");
    });
    std::vector<std::vector<std::byte>> shards;
    simtime::Clock clock;
    for (int r = 0; r < kRanks; ++r) {
      shards.push_back(
          fs.read_file("ckpt/pf/shard" + std::to_string(r), clock));
    }
    return shards;
  };
  const auto blocking = shards_for(false);
  const auto behind = shards_for(true);
  EXPECT_EQ(blocking, behind) << "write-behind must not change one byte";
  for (const auto& shard : blocking) EXPECT_FALSE(shard.empty());
}

TEST(JobPrefetch, OocSpillWriteBehindBitIdentical) {
  const auto run_once = [](bool prefetch) {
    auto per_rank = std::make_shared<PerRank>(kRanks);
    simmpi::run_test(kRanks, [&](Context& ctx) {
      JobConfig cfg;
      cfg.page_size = 512;
      cfg.comm_buffer = 512;
      cfg.ooc_live_bytes = 2048;  // force the spill path
      cfg.prefetch = prefetch;    // -> write-behind spill files
      Job job(ctx, cfg);
      job.map_custom([&](Emitter& out) {
        for (int i = 0; i < 2000; ++i) {
          out.emit(std::string("k").append(
                       std::to_string((i * 7 + ctx.rank()) % 97)),
                   std::uint64_t{1});
        }
      });
      job.reduce(apps::wc::reduce_counts);
      auto& mine = (*per_rank)[static_cast<std::size_t>(ctx.rank())];
      job.output().scan([&](const KVView& kv) {
        mine.push_back(std::string(kv.key) + "=" +
                       std::to_string(mimir::as_u64(kv.value)));
      });
    });
    return *per_rank;
  };
  const PerRank blocking = run_once(false);
  EXPECT_EQ(blocking, run_once(true));
  std::size_t total = 0;
  for (const auto& rank : blocking) total += rank.size();
  EXPECT_EQ(total, 97u);
}

// --- crash-window recovery -------------------------------------------------

/// Thread-safe whole-job output collection (cf. tests/inject).
struct OutputSink {
  std::mutex mutex;
  std::map<int, std::map<std::string, std::uint64_t>> by_rank;

  void take(Job& job) {
    std::map<std::string, std::uint64_t> mine;
    job.output().scan([&](const KVView& kv) {
      mine[std::string(kv.key)] += mimir::as_u64(kv.value);
    });
    const std::scoped_lock lock(mutex);
    by_rank[job.context().rank()] = std::move(mine);
  }
  std::map<std::string, std::uint64_t> merged() const {
    std::map<std::string, std::uint64_t> all;
    for (const auto& [rank, kvs] : by_rank) {
      for (const auto& [key, value] : kvs) all[key] += value;
    }
    return all;
  }
};

RecoveryJob prefetch_job(OutputSink& sink,
                         const std::vector<std::string>& files,
                         bool prefetch) {
  RecoveryJob spec;
  spec.config = small_cfg(prefetch);
  spec.map = [files](Job& job) {
    job.map_text_files(files, apps::wc::map_words);
  };
  spec.finish = [&sink](Job& job) {
    job.reduce(apps::wc::reduce_counts);
    sink.take(job);
  };
  return spec;
}

std::vector<std::string> generate_recovery_input(pfs::FileSystem& fs) {
  apps::wc::GenOptions gen;
  gen.total_bytes = 24 << 10;
  gen.num_files = kFiles;  // one file per rank: every rank prefetches
  return apps::wc::generate_uniform(fs, "in", gen);
}

TEST(JobPrefetch, CrashBetweenPrefetchIssueAndWaitRecovers) {
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, kRanks);
  const auto files = generate_recovery_input(fs);

  // Undisturbed blocking-mode reference: the recovered prefetch run
  // must land on exactly this output.
  OutputSink expected;
  (void)mimir::run_with_recovery(kRanks, machine, fs,
                                 prefetch_job(expected, files, false));
  ASSERT_FALSE(expected.merged().empty());

  // The pfs.prefetch point fires right after a read-ahead is issued —
  // the crash lands in the issue->wait window with a request in flight.
  const FaultPlan plan = FaultPlan::parse("rank_crash:1@pfs.prefetch");
  OutputSink sink;
  const RecoveryOutcome out = mimir::run_with_recovery(
      kRanks, machine, fs, prefetch_job(sink, files, true), {}, &plan);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].ok);
  EXPECT_EQ(out.history[0].failed_rank, 1);
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_EQ(sink.merged(), expected.merged());
}

TEST(JobPrefetch, CrashAtWriteBehindFlushRecovers) {
  const auto machine = profile_with_io();
  pfs::FileSystem fs(machine, kRanks);
  const auto files = generate_recovery_input(fs);

  OutputSink expected;
  (void)mimir::run_with_recovery(kRanks, machine, fs,
                                 prefetch_job(expected, files, false));

  // With prefetch on, checkpoint shards go through the write-behind
  // queue; pfs.flush fires at the pre-barrier drain. A crash there
  // leaves an uncommitted checkpoint, which the retry must ignore.
  const FaultPlan plan = FaultPlan::parse("rank_crash:1@pfs.flush");
  OutputSink sink;
  const RecoveryOutcome out = mimir::run_with_recovery(
      kRanks, machine, fs, prefetch_job(sink, files, true), {}, &plan);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].ok);
  EXPECT_EQ(out.history[0].failed_rank, 1);
  EXPECT_TRUE(out.history[1].ok);
  EXPECT_EQ(sink.merged(), expected.merged());
}

}  // namespace
