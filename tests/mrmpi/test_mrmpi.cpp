#include "mrmpi/mrmpi.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "mutil/hash.hpp"
#include <string>

namespace {

using mimir::Emitter;
using mimir::KVView;
using mimir::ValueReader;
using mrmpi::MapReduce;
using mrmpi::MRConfig;
using mrmpi::OocMode;
using simmpi::Context;

constexpr std::uint64_t kOne = 1;

void wc_map(std::string_view chunk, Emitter& out) {
  std::size_t start = 0;
  while (start < chunk.size()) {
    const std::size_t end = chunk.find_first_of(" \n\t", start);
    const std::size_t stop =
        end == std::string_view::npos ? chunk.size() : end;
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

std::map<std::string, std::uint64_t> gather_counts(Context& ctx,
                                                   MapReduce& mr) {
  std::string flat;
  mr.scan_kv([&](const KVView& kv) {
    flat += std::string(kv.key) + ' ' +
            std::to_string(mimir::as_u64(kv.value)) + '\n';
  });
  const auto gathered = ctx.comm.gatherv(
      0, std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(flat.data()), flat.size()));
  std::map<std::string, std::uint64_t> counts;
  if (ctx.rank() == 0) {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(gathered.data.data()),
                    gathered.data.size()));
    std::string word;
    std::uint64_t n = 0;
    while (in >> word >> n) counts[word] += n;
  }
  return counts;
}

void write_input(pfs::FileSystem& fs, const std::string& text) {
  simtime::Clock clock;
  fs.write_file("input/part0", text, clock);
}

class MrMpiWordCount : public ::testing::TestWithParam<int> {};

TEST_P(MrMpiWordCount, FullPipelineCounts) {
  const int ranks = GetParam();
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, ranks);
  write_input(fs, "the cat sat on the mat\nthe dog sat\ncat and dog\n");
  const std::vector<std::string> files{"input/part0"};

  simmpi::run(ranks, machine, fs, [&](Context& ctx) {
    MRConfig cfg;
    cfg.page_size = 2048;
    MapReduce mr(ctx, cfg);
    mr.map_text_files(files, wc_map);
    mr.aggregate();
    mr.convert();
    mr.reduce(wc_reduce);
    const auto counts = gather_counts(ctx, mr);
    if (ctx.rank() == 0) {
      EXPECT_EQ(counts.at("the"), 3u);
      EXPECT_EQ(counts.at("cat"), 2u);
      EXPECT_EQ(counts.at("dog"), 2u);
      EXPECT_EQ(counts.size(), 7u);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, MrMpiWordCount, ::testing::Values(1, 3, 6));

TEST(MrMpi, AggregateRoutesByHashOwner) {
  simmpi::run_test(4, [](Context& ctx) {
    MapReduce mr(ctx, {});
    mr.map_custom([&](Emitter& out) {
      for (int i = 0; i < 50; ++i) {
        out.emit("key" + std::to_string(i), "v");
      }
    });
    mr.aggregate();
    mr.scan_kv([&](const KVView& kv) {
      EXPECT_EQ(mutil::hash_bytes(kv.key) %
                    static_cast<std::uint64_t>(ctx.size()),
                static_cast<std::uint64_t>(ctx.rank()));
    });
  });
}

TEST(MrMpi, CompressShrinksShuffleNotMemory) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 2;
  pfs::FileSystem fs(machine, 2);
  write_input(fs, [] {
    std::string text;
    for (int i = 0; i < 200; ++i) text += "alpha beta alpha\n";
    return text;
  }());
  const std::vector<std::string> files{"input/part0"};

  std::uint64_t peak_plain = 0, peak_cps = 0;
  std::uint64_t shuffle_plain = 0, shuffle_cps = 0;
  for (const bool cps : {false, true}) {
    const auto stats = simmpi::run(2, machine, fs, [&](Context& ctx) {
      MRConfig cfg;
      cfg.page_size = 8192;
      MapReduce mr(ctx, cfg);
      mr.map_text_files(files, wc_map);
      if (cps) mr.compress(wc_combine);
      mr.aggregate();
      mr.convert();
      mr.reduce(wc_reduce);
      const auto shuffled = ctx.comm.allreduce_u64(
          mr.metrics().shuffled_bytes, simmpi::Op::kSum);
      const auto combined = ctx.comm.allreduce_u64(
          mr.metrics().combined_kvs, simmpi::Op::kSum);
      if (ctx.rank() == 0) {
        if (cps) {
          EXPECT_GT(combined, 0u);
          shuffle_cps = shuffled;
        } else {
          shuffle_plain = shuffled;
        }
      }
    });
    if (cps) {
      peak_cps = stats.node_peak;
    } else {
      peak_plain = stats.node_peak;
    }
  }
  EXPECT_LT(shuffle_cps, shuffle_plain);
  // The paper: compression does NOT reduce MR-MPI's memory usage (fixed
  // pages) — peaks stay in the same ballpark (compress adds a phase).
  EXPECT_GE(peak_cps, peak_plain / 2);
}

TEST(MrMpi, SpilloverKeepsResultsCorrect) {
  // Page far smaller than the data: everything spills, results identical.
  // (Every KMV still fits one page — MR-MPI cannot represent one that
  // does not; see KmvLargerThanPageRejected below.)
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 2);
  std::string text;
  for (int i = 0; i < 600; ++i) {
    text += std::string("w").append(std::to_string(i % 60)) + "\n";
  }
  write_input(fs, text);
  const std::vector<std::string> files{"input/part0"};

  simmpi::run(2, machine, fs, [&](Context& ctx) {
    MRConfig cfg;
    cfg.page_size = 1024;  // small page forces out-of-core everywhere
    MapReduce mr(ctx, cfg);
    mr.map_text_files(files, wc_map);
    mr.aggregate();
    mr.convert();
    mr.reduce(wc_reduce);
    EXPECT_TRUE(mr.metrics().spilled);
    const auto counts = gather_counts(ctx, mr);
    if (ctx.rank() == 0) {
      ASSERT_EQ(counts.size(), 60u);
      for (int i = 0; i < 60; ++i) {
        EXPECT_EQ(counts.at("w" + std::to_string(i)), 10u);
      }
    }
  });
}

TEST(MrMpi, KmvLargerThanPageRejected) {
  // One key with more value bytes than a page: MR-MPI cannot build the
  // KMV (its convert requires each KMV to fit in a page).
  EXPECT_THROW(
      simmpi::run_test(1,
                       [](Context& ctx) {
                         MRConfig cfg;
                         cfg.page_size = 256;
                         MapReduce mr(ctx, cfg);
                         mr.map_custom([](Emitter& out) {
                           for (int i = 0; i < 100; ++i) {
                             out.emit("hot", "0123456789");
                           }
                         });
                         mr.aggregate();
                         mr.convert();
                       }),
      mutil::UsageError);
}

TEST(MrMpi, SpillingIsSlowerThanInMemory) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 1e-3;
  machine.pfs_bandwidth = 1e5;
  std::string text;
  for (int i = 0; i < 300; ++i) text += "word" + std::to_string(i) + "\n";

  double in_memory = 0, out_of_core = 0;
  for (const std::uint64_t page : {64ull << 10, 256ull}) {
    pfs::FileSystem fs(machine, 1);
    write_input(fs, text);
    const std::vector<std::string> files{"input/part0"};
    const auto stats = simmpi::run(1, machine, fs, [&](Context& ctx) {
      MRConfig cfg;
      cfg.page_size = page;
      MapReduce mr(ctx, cfg);
      mr.map_text_files(files, wc_map);
      mr.aggregate();
      mr.convert();
      mr.reduce(wc_reduce);
    });
    if (page == 256) {
      out_of_core = stats.sim_time;
    } else {
      in_memory = stats.sim_time;
    }
  }
  EXPECT_GT(out_of_core, in_memory * 5)
      << "spilling must cost orders of magnitude in simulated time";
}

TEST(MrMpi, ErrorModeTerminatesOnOverflow) {
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 1);
  std::string text;
  for (int i = 0; i < 200; ++i) text += "word" + std::to_string(i) + "\n";
  write_input(fs, text);
  const std::vector<std::string> files{"input/part0"};
  EXPECT_THROW(simmpi::run(1, machine, fs,
                           [&](Context& ctx) {
                             MRConfig cfg;
                             cfg.page_size = 128;
                             cfg.out_of_core = OocMode::kError;
                             MapReduce mr(ctx, cfg);
                             mr.map_text_files(files, wc_map);
                             mr.aggregate();
                           }),
               mutil::UsageError);
}

TEST(MrMpi, PhaseOrderEnforced) {
  simmpi::run_test(1, [](Context& ctx) {
    MapReduce mr(ctx, {});
    EXPECT_THROW(mr.aggregate(), mutil::UsageError);
    EXPECT_THROW(mr.convert(), mutil::UsageError);
    EXPECT_THROW(mr.reduce(wc_reduce), mutil::UsageError);
    mr.map_custom([](Emitter& out) { out.emit("k", "v"); });
    EXPECT_THROW(mr.reduce(wc_reduce), mutil::UsageError)
        << "reduce before convert must fail";
  });
}

TEST(MrMpi, MapKvSupportsIterativeJobs) {
  simmpi::run_test(2, [](Context& ctx) {
    MapReduce mr(ctx, {});
    mr.map_custom([&](Emitter& out) {
      if (ctx.rank() == 0) {
        for (int i = 0; i < 8; ++i) {
          out.emit("n" + std::to_string(i), mimir::as_view(kOne));
        }
      }
    });
    mr.aggregate();
    // Iterate: double every value's key id.
    mr.map_kv([](std::string_view key, std::string_view value,
                 Emitter& out) {
      const int n = std::stoi(std::string(key.substr(1)));
      out.emit("n" + std::to_string(2 * n), value);
    });
    mr.aggregate();
    std::uint64_t local = 0;
    mr.scan_kv([&](const KVView&) { ++local; });
    const auto total = ctx.comm.allreduce_u64(local, simmpi::Op::kSum);
    EXPECT_EQ(total, 8u);
  });
}

TEST(MrMpi, AggregateUsesSevenPagesOfMemory) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.ranks_per_node = 1;
  pfs::FileSystem fs(machine, 1);
  constexpr std::uint64_t kPage = 4096;
  const auto stats = simmpi::run(1, machine, fs, [&](Context& ctx) {
    MRConfig cfg;
    cfg.page_size = kPage;
    MapReduce mr(ctx, cfg);
    mr.map_custom([](Emitter& out) { out.emit("k", "v"); });
    mr.aggregate();
  });
  // input(1) + send(1) + recv(2) + temp(2) + output(1) = 7 pages.
  EXPECT_EQ(stats.node_peak, 7 * kPage);
}

TEST(MrMpi, ConfigFromParsesKeys) {
  const auto cfg = mutil::Config::from_args(
      {"mrmpi.page_size=512K", "mrmpi.out_of_core=error"});
  const MRConfig mc = MRConfig::from(cfg);
  EXPECT_EQ(mc.page_size, 512u << 10);
  EXPECT_EQ(mc.out_of_core, OocMode::kError);
  EXPECT_THROW(MRConfig::from(mutil::Config::from_args(
                   {"mrmpi.out_of_core=bogus"})),
               mutil::ConfigError);
}

}  // namespace
