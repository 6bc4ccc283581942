#include "apps/wordcount.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mutil/hash.hpp"

namespace {

using apps::wc::GenOptions;
using apps::wc::RunOptions;

simtime::MachineProfile test_machine() {
  return simtime::MachineProfile::test_profile();
}

/// Compute the reference checksum the drivers should reproduce.
std::uint64_t reference_checksum(pfs::FileSystem& fs,
                                 const std::vector<std::string>& files,
                                 std::uint64_t* total,
                                 std::uint64_t* unique) {
  const auto counts = apps::wc::reference_counts(fs, files);
  std::uint64_t checksum = 0;
  *total = 0;
  *unique = counts.size();
  for (const auto& [word, count] : counts) {
    checksum += mutil::hash_bytes(word) * count;
    *total += count;
  }
  return checksum;
}

TEST(WcGenerators, UniformProducesRequestedVolume) {
  auto machine = test_machine();
  pfs::FileSystem fs(machine, 1);
  GenOptions gen;
  gen.total_bytes = 64 << 10;
  gen.num_files = 4;
  const auto files = apps::wc::generate_uniform(fs, "wc", gen);
  ASSERT_EQ(files.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& f : files) total += fs.file_size(f);
  EXPECT_NEAR(static_cast<double>(total), 64 << 10, 4096);
}

TEST(WcGenerators, UniformIsDeterministic) {
  auto machine = test_machine();
  pfs::FileSystem fs(machine, 1);
  GenOptions gen;
  gen.total_bytes = 8 << 10;
  apps::wc::generate_uniform(fs, "a", gen);
  apps::wc::generate_uniform(fs, "b", gen);
  simtime::Clock clock;
  EXPECT_EQ(fs.read_file("a/part0", clock), fs.read_file("b/part0", clock));
}

TEST(WcGenerators, WikipediaIsSkewed) {
  auto machine = test_machine();
  pfs::FileSystem fs(machine, 1);
  GenOptions gen;
  gen.total_bytes = 256 << 10;
  const auto files = apps::wc::generate_wikipedia(fs, "wiki", gen);
  const auto counts = apps::wc::reference_counts(fs, files);
  std::uint64_t total = 0, top = 0;
  for (const auto& [word, count] : counts) {
    total += count;
    top = std::max(top, count);
  }
  // Zipf 1.05: the most frequent word should dominate far beyond a
  // uniform share.
  EXPECT_GT(top * counts.size(), total * 5)
      << "top word must be many times the mean frequency";
}

TEST(WcGenerators, UniformIsNotSkewed) {
  auto machine = test_machine();
  pfs::FileSystem fs(machine, 1);
  GenOptions gen;
  gen.total_bytes = 256 << 10;
  gen.vocabulary = 512;
  const auto files = apps::wc::generate_uniform(fs, "uni", gen);
  const auto counts = apps::wc::reference_counts(fs, files);
  std::uint64_t total = 0, top = 0;
  for (const auto& [word, count] : counts) {
    total += count;
    top = std::max(top, count);
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(counts.size());
  EXPECT_LT(static_cast<double>(top), mean * 2.0);
}

struct WcCase {
  bool mrmpi;
  bool hint;
  bool pr;
  bool cps;
  const char* name;
};

class WcFrameworks : public ::testing::TestWithParam<WcCase> {};

TEST_P(WcFrameworks, MatchesSerialReference) {
  const WcCase c = GetParam();
  constexpr int kRanks = 4;
  auto machine = test_machine();
  pfs::FileSystem fs(machine, kRanks);
  GenOptions gen;
  gen.total_bytes = 96 << 10;
  gen.num_files = kRanks;
  const auto files = apps::wc::generate_wikipedia(fs, "wc", gen);

  std::uint64_t ref_total = 0, ref_unique = 0;
  const std::uint64_t ref_checksum =
      reference_checksum(fs, files, &ref_total, &ref_unique);

  simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
    RunOptions opts;
    opts.files = files;
    // Large enough that the hottest Zipf word's KMV fits an MR-MPI page
    // (MR-MPI cannot represent a KMV larger than one page).
    opts.page_size = 64 << 10;
    opts.comm_buffer = 16 << 10;
    opts.hint = c.hint;
    opts.pr = c.pr;
    opts.cps = c.cps;
    const auto result = c.mrmpi ? apps::wc::run_mrmpi(ctx, opts)
                                : apps::wc::run_mimir(ctx, opts);
    EXPECT_EQ(result.total_words, ref_total);
    EXPECT_EQ(result.unique_words, ref_unique);
    EXPECT_EQ(result.checksum, ref_checksum);
  });
}

// gtest prints a case's raw bytes into its ctest name; a static table has
// zeroed padding, so the name is the same in every build (temporaries in
// Values() would leave stack garbage there).
constexpr WcCase kWcCases[] = {
    {false, false, false, false, "mimir_base"},
    {false, true, false, false, "mimir_hint"},
    {false, true, true, false, "mimir_hint_pr"},
    {false, true, true, true, "mimir_all"},
    {true, false, false, false, "mrmpi_base"},
    {true, false, false, true, "mrmpi_cps"},
};

INSTANTIATE_TEST_SUITE_P(
    Paths, WcFrameworks, ::testing::ValuesIn(kWcCases),
    [](const auto& param_info) { return param_info.param.name; });

TEST(WcOverlap, OverlappedShuffleIsBitIdentical) {
  // The overlapped (double-buffered, non-blocking) shuffle must change
  // only the timing model, never the answer: same totals, same checksum,
  // both equal to the serial reference. Zipf input keeps the partitions
  // skewed and the small comm buffer forces many exchange rounds.
  constexpr int kRanks = 4;
  auto machine = test_machine();
  pfs::FileSystem fs(machine, kRanks);
  GenOptions gen;
  gen.total_bytes = 96 << 10;
  gen.num_files = kRanks;
  const auto files = apps::wc::generate_wikipedia(fs, "wc_ov", gen);

  std::uint64_t ref_total = 0, ref_unique = 0;
  const std::uint64_t ref_checksum =
      reference_checksum(fs, files, &ref_total, &ref_unique);

  apps::wc::Result results[2];
  for (const bool overlap : {false, true}) {
    simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
      RunOptions opts;
      opts.files = files;
      opts.page_size = 64 << 10;
      opts.comm_buffer = 4 << 10;
      opts.overlap = overlap;
      const auto result = apps::wc::run_mimir(ctx, opts);
      if (ctx.rank() == 0) results[overlap ? 1 : 0] = result;
    });
  }
  EXPECT_EQ(results[0].total_words, results[1].total_words);
  EXPECT_EQ(results[0].unique_words, results[1].unique_words);
  EXPECT_EQ(results[0].checksum, results[1].checksum);
  EXPECT_EQ(results[1].total_words, ref_total);
  EXPECT_EQ(results[1].unique_words, ref_unique);
  EXPECT_EQ(results[1].checksum, ref_checksum);
}

TEST(WcMemory, MimirUsesLessPeakMemoryThanMrMpiInMemory) {
  // The paper's claim is about *in-memory* executions: when the dataset
  // fits MR-MPI's pages, MR-MPI still pays for all statically allocated
  // pages while Mimir's usage tracks live data.
  constexpr int kRanks = 4;
  auto machine = test_machine();
  machine.ranks_per_node = kRanks;
  pfs::FileSystem fs(machine, kRanks);
  GenOptions gen;
  gen.total_bytes = 128 << 10;
  gen.num_files = kRanks;
  const auto files = apps::wc::generate_uniform(fs, "wc", gen);

  RunOptions opts;
  opts.files = files;
  opts.page_size = 64 << 10;  // one rank's whole dataset fits a page
  opts.comm_buffer = 16 << 10;

  const auto mimir_stats = simmpi::run(
      kRanks, machine, fs,
      [&](simmpi::Context& ctx) { apps::wc::run_mimir(ctx, opts); });
  const auto mrmpi_stats = simmpi::run(
      kRanks, machine, fs,
      [&](simmpi::Context& ctx) { apps::wc::run_mrmpi(ctx, opts); });

  EXPECT_LT(mimir_stats.node_peak, mrmpi_stats.node_peak)
      << "the paper's headline claim: Mimir uses less memory";
}

TEST(WcHint, HintReducesIntermediateBytes) {
  // Reproduces the mechanism behind paper Figure 7 (~26 % KV size cut).
  constexpr int kRanks = 2;
  auto machine = test_machine();
  pfs::FileSystem fs(machine, kRanks);
  GenOptions gen;
  gen.total_bytes = 64 << 10;
  gen.num_files = kRanks;
  const auto files = apps::wc::generate_wikipedia(fs, "wc", gen);

  std::uint64_t bytes_plain = 0, bytes_hint = 0;
  for (const bool hint : {false, true}) {
    simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
      mimir::JobConfig cfg;
      cfg.page_size = 16 << 10;
      cfg.comm_buffer = 16 << 10;
      if (hint) cfg.hint = mimir::KVHint::string_key_u64_value();
      mimir::Job job(ctx, cfg);
      job.map_text_files(files, apps::wc::map_words);
      const auto total = ctx.comm.allreduce_u64(
          job.metrics().intermediate_bytes, simmpi::Op::kSum);
      if (ctx.rank() == 0) {
        (hint ? bytes_hint : bytes_plain) = total;
      }
    });
  }
  // Expect roughly the paper's ~26 % reduction; accept 15-40 %.
  EXPECT_LT(bytes_hint, bytes_plain * 0.85);
  EXPECT_GT(bytes_hint, bytes_plain * 0.60);
}

/// Records every emitted (key, value) pair.
class RecordingEmitter final : public mimir::Emitter {
 public:
  void emit(std::string_view key, std::string_view value) override {
    emitted.emplace_back(key, value);
  }
  std::vector<std::pair<std::string, std::string>> emitted;
};

/// The find_first_of tokenizer map_words replaced, kept as its
/// reference.
std::vector<std::pair<std::string, std::string>> reference_words(
    std::string_view chunk) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::uint64_t one = 1;
  std::size_t start = 0;
  while (start < chunk.size()) {
    const std::size_t end = chunk.find_first_of(" \n\t\r", start);
    const std::size_t stop =
        end == std::string_view::npos ? chunk.size() : end;
    if (stop > start) {
      out.emplace_back(chunk.substr(start, stop - start),
                       mimir::as_view(one));
    }
    start = stop + 1;
  }
  return out;
}

TEST(WcMapWords, MatchesTheFindFirstOfTokenizer) {
  using namespace std::string_view_literals;
  const std::string_view chunks[] = {
      ""sv,
      "word"sv,
      "two words\n"sv,
      "  leading and trailing  "sv,
      "repeated   separators\n\n\nhere"sv,
      "windows\r\nline\r\nends\r\n"sv,
      "tabs\tand\t\tmore\ttabs"sv,
      "\n\t\r "sv,
      "no final newline"sv,
      "punctuation, stays; attached!\n"sv,
      "\x01" "control\x7f and \xc3\xa9t\xc3\xa9 bytes"sv,
      "nul\0inside and\vvertical\ffeed"sv,
  };
  for (const std::string_view chunk : chunks) {
    SCOPED_TRACE(std::string(chunk));
    RecordingEmitter out;
    apps::wc::map_words(chunk, out);
    EXPECT_EQ(out.emitted, reference_words(chunk));
  }
}

}  // namespace
