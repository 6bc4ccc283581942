#include "mimir/job.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "simmpi/runtime.hpp"

namespace {

using mimir::Emitter;
using mimir::Job;
using mimir::JobConfig;
using mimir::KVHint;
using mimir::KVView;
using mimir::ValueReader;
using simmpi::Context;

constexpr std::uint64_t kOne = 1;

void wc_map(std::string_view chunk, Emitter& out) {
  std::size_t start = 0;
  while (start < chunk.size()) {
    const std::size_t end = chunk.find_first_of(" \n\t", start);
    const std::size_t stop = end == std::string_view::npos ? chunk.size()
                                                           : end;
    if (stop > start) {
      out.emit(chunk.substr(start, stop - start), mimir::as_view(kOne));
    }
    start = stop + 1;
  }
}

void wc_reduce(std::string_view key, ValueReader& values, Emitter& out) {
  std::uint64_t total = 0;
  std::string_view v;
  while (values.next(v)) total += mimir::as_u64(v);
  out.emit(key, mimir::as_view(total));
}

void wc_combine(std::string_view, std::string_view a, std::string_view b,
                std::string& out) {
  const std::uint64_t total = mimir::as_u64(a) + mimir::as_u64(b);
  out.assign(mimir::as_view(total));
}

/// Gather all output KVs at rank 0 as a word->count map.
std::map<std::string, std::uint64_t> gather_counts(Context& ctx,
                                                   mimir::KVContainer& out) {
  std::string flat;
  out.scan([&](const KVView& kv) {
    flat += std::string(kv.key) + ' ' + std::to_string(mimir::as_u64(kv.value)) + '\n';
  });
  const auto gathered = ctx.comm.gatherv(
      0, std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(flat.data()), flat.size()));
  std::map<std::string, std::uint64_t> counts;
  if (ctx.rank() == 0) {
    std::istringstream in(std::string(
        reinterpret_cast<const char*>(gathered.data.data()),
        gathered.data.size()));
    std::string word;
    std::uint64_t n = 0;
    while (in >> word >> n) counts[word] += n;
  }
  return counts;
}

void write_inputs(pfs::FileSystem& fs, const std::vector<std::string>& lines) {
  simtime::Clock clock;
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  fs.write_file("input/part0", text, clock);
}

class JobWordCount : public ::testing::TestWithParam<int> {};

TEST_P(JobWordCount, CountsMatchAcrossRankCounts) {
  const int ranks = GetParam();
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, ranks);
  write_inputs(fs, {"the cat sat on the mat", "the dog sat", "cat and dog"});
  const std::vector<std::string> files{"input/part0"};

  simmpi::run(ranks, machine, fs, [&](Context& ctx) {
    JobConfig cfg;
    cfg.page_size = 1024;
    cfg.comm_buffer = 1024;
    Job job(ctx, cfg);
    job.map_text_files(files, wc_map);
    job.reduce(wc_reduce);
    const auto counts = gather_counts(ctx, job.output());
    if (ctx.rank() == 0) {
      EXPECT_EQ(counts.at("the"), 3u);
      EXPECT_EQ(counts.at("cat"), 2u);
      EXPECT_EQ(counts.at("sat"), 2u);
      EXPECT_EQ(counts.at("dog"), 2u);
      EXPECT_EQ(counts.at("mat"), 1u);
      EXPECT_EQ(counts.at("and"), 1u);
      EXPECT_EQ(counts.at("on"), 1u);
      EXPECT_EQ(counts.size(), 7u);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, JobWordCount, ::testing::Values(1, 2, 5, 8));

struct OptCase {
  bool hint;
  bool pr;
  bool cps;
  const char* name;
};

class JobOptimizations : public ::testing::TestWithParam<OptCase> {};

TEST_P(JobOptimizations, AllPathsProduceIdenticalCounts) {
  const OptCase opt = GetParam();
  constexpr int kRanks = 4;
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);
  // Repetitive text so combining has work to do.
  std::vector<std::string> lines;
  for (int i = 0; i < 50; ++i) {
    lines.push_back("alpha beta gamma alpha beta alpha w" +
                    std::to_string(i % 7));
  }
  write_inputs(fs, lines);
  const std::vector<std::string> files{"input/part0"};

  simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
    JobConfig cfg;
    cfg.page_size = 2048;
    cfg.comm_buffer = 2048;
    if (opt.hint) cfg.hint = KVHint::string_key_u64_value();
    cfg.kv_compression = opt.cps;
    Job job(ctx, cfg);
    job.map_text_files(files, wc_map, opt.cps ? wc_combine : mimir::CombineFn{});
    if (opt.pr) {
      job.partial_reduce(wc_combine);
    } else {
      job.reduce(wc_reduce);
    }
    const auto counts = gather_counts(ctx, job.output());
    if (ctx.rank() == 0) {
      EXPECT_EQ(counts.at("alpha"), 150u);
      EXPECT_EQ(counts.at("beta"), 100u);
      EXPECT_EQ(counts.at("gamma"), 50u);
      EXPECT_EQ(counts.at("w0"), 8u);
      EXPECT_EQ(counts.at("w6"), 7u);
    }
    if (opt.cps) {
      // One input file -> one mapping rank; check totals globally.
      const auto combined = ctx.comm.allreduce_u64(
          job.metrics().combined_kvs, simmpi::Op::kSum);
      EXPECT_GT(combined, 0u);
      // Compression must shrink shuffle traffic versus the 350 raw KVs.
      const auto shuffled = ctx.comm.allreduce_u64(
          job.metrics().map_emitted_kvs, simmpi::Op::kSum);
      EXPECT_LT(shuffled, 350u);
    }
  });
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr OptCase kOptCases[] = {
    {false, false, false, "baseline"},
    {true, false, false, "hint"},
    {true, true, false, "hint_pr"},
    {true, true, true, "hint_pr_cps"},
    {false, false, true, "cps_only"},
    {false, true, false, "pr_only"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, JobOptimizations, ::testing::ValuesIn(kOptCases),
    [](const auto& param_info) { return param_info.param.name; });

TEST(Job, MapKvsChainsJobs) {
  simmpi::run_test(3, [](Context& ctx) {
    JobConfig cfg;
    cfg.page_size = 1024;
    cfg.comm_buffer = 1024;
    // Stage 1: produce (i % 5, 1) from a custom source.
    Job first(ctx, cfg);
    first.map_custom([&](Emitter& out) {
      for (int i = ctx.rank(); i < 60; i += ctx.size()) {
        out.emit("g" + std::to_string(i % 5), mimir::as_view(kOne));
      }
    });
    // Stage 2: feed stage 1's aggregated KVs into a second job that
    // re-keys everything onto one key.
    Job second(ctx, cfg);
    second.map_kvs(first.take_intermediate(),
                   [](std::string_view, std::string_view value,
                      Emitter& out) { out.emit("total", value); });
    second.reduce(wc_reduce);
    std::uint64_t local = 0;
    second.output().scan(
        [&](const KVView& kv) { local += mimir::as_u64(kv.value); });
    const auto total = ctx.comm.allreduce_u64(local, simmpi::Op::kSum);
    EXPECT_EQ(total, 60u);
  });
}

TEST(Job, MapOnlyJobExposesIntermediate) {
  simmpi::run_test(2, [](Context& ctx) {
    Job job(ctx, {});
    job.map_custom([&](Emitter& out) {
      if (ctx.rank() == 0) {
        for (int i = 0; i < 10; ++i) {
          out.emit("v" + std::to_string(i), "payload");
        }
      }
    });
    const auto total = ctx.comm.allreduce_u64(job.intermediate().num_kvs(),
                                              simmpi::Op::kSum);
    EXPECT_EQ(total, 10u);
  });
}

TEST(Job, PhaseErrorsAreRejected) {
  simmpi::run_test(1, [](Context& ctx) {
    Job job(ctx, {});
    EXPECT_THROW(job.reduce(wc_reduce), mutil::UsageError);
    job.map_custom([](Emitter&) {});
    EXPECT_THROW(job.map_custom([](Emitter&) {}), mutil::UsageError);
    job.reduce(wc_reduce);
  });
}

TEST(Job, CompressionWithoutCombinerRejected) {
  simmpi::run_test(1, [](Context& ctx) {
    JobConfig cfg;
    cfg.kv_compression = true;
    Job job(ctx, cfg);
    EXPECT_THROW(job.map_custom([](Emitter&) {}), mutil::UsageError);
  });
}

TEST(Job, MetricsPopulated) {
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 2);
  write_inputs(fs, {"a b c a", "b a"});
  const std::vector<std::string> files{"input/part0"};
  simmpi::run(2, machine, fs, [&](Context& ctx) {
    Job job(ctx, {});
    job.map_text_files(files, wc_map);
    const auto& m = job.metrics();
    const auto emitted =
        ctx.comm.allreduce_u64(m.map_emitted_kvs, simmpi::Op::kSum);
    EXPECT_EQ(emitted, 6u);
    job.reduce(wc_reduce);
    const auto uniq =
        ctx.comm.allreduce_u64(job.metrics().unique_keys, simmpi::Op::kSum);
    EXPECT_EQ(uniq, 3u);
    EXPECT_GE(job.metrics().reduce_end_time, job.metrics().map_end_time);
  });
}

class PipelinedCps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelinedCps, BoundedBucketKeepsCountsExact) {
  // Extension of paper §III-C2: flushing the compression bucket at a
  // byte bound must not change results, only bound memory.
  const std::uint64_t bound = GetParam();
  constexpr int kRanks = 3;
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    lines.push_back("alpha beta w" + std::to_string(i % 13) + " alpha");
  }
  write_inputs(fs, lines);
  const std::vector<std::string> files{"input/part0"};

  simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
    JobConfig cfg;
    cfg.kv_compression = true;
    cfg.cps_max_bucket = bound;
    Job job(ctx, cfg);
    job.map_text_files(files, wc_map, wc_combine);
    job.reduce(wc_reduce);
    const auto counts = gather_counts(ctx, job.output());
    if (ctx.rank() == 0) {
      EXPECT_EQ(counts.at("alpha"), 400u);
      EXPECT_EQ(counts.at("beta"), 200u);
      EXPECT_EQ(counts.at("w0"), 16u);
      EXPECT_EQ(counts.at("w12"), 15u);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Bounds, PipelinedCps,
                         ::testing::Values(0, 64, 512, 4096, 1u << 20));

TEST(Job, PipelinedCpsBoundsBucketMemory) {
  // With a tiny bound the peak must stay well below the unbounded
  // bucket's (which holds every unique key at once).
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 1;
  std::vector<std::string> lines;
  for (int i = 0; i < 3000; ++i) {
    lines.push_back("unique-word-" + std::to_string(i));
  }
  std::uint64_t peaks[2] = {0, 0};
  int idx = 0;
  for (const std::uint64_t bound : {std::uint64_t{0}, std::uint64_t{2048}}) {
    pfs::FileSystem fs(machine, 1);
    write_inputs(fs, lines);
    const std::vector<std::string> files{"input/part0"};
    // Map phase only: the bucket lives there, and the later convert
    // phase's index would dominate both peaks equally.
    const auto stats = simmpi::run(1, machine, fs, [&](Context& ctx) {
      JobConfig cfg;
      cfg.page_size = 4 << 10;
      cfg.comm_buffer = 4 << 10;
      cfg.kv_compression = true;
      cfg.cps_max_bucket = bound;
      Job job(ctx, cfg);
      job.map_text_files(files, wc_map, wc_combine);
    });
    peaks[idx++] = stats.node_peak;
  }
  EXPECT_LT(peaks[1], peaks[0]);
}

TEST(Job, ConfigFromParsesMimirKeys) {
  const auto cfg = mutil::Config::from_args(
      {"mimir.page_size=128K", "mimir.comm_buffer=32K",
       "mimir.kv_compression=true", "mimir.key_hint=str",
       "mimir.value_hint=8"});
  const JobConfig jc = JobConfig::from(cfg);
  EXPECT_EQ(jc.page_size, 128u << 10);
  EXPECT_EQ(jc.comm_buffer, 32u << 10);
  EXPECT_TRUE(jc.kv_compression);
  EXPECT_EQ(jc.hint.key_len, KVHint::kString);
  EXPECT_EQ(jc.hint.value_len, 8);
}

}  // namespace
