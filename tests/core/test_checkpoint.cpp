#include "mimir/checkpoint.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "mutil/error.hpp"
#include "mutil/hash.hpp"
#include "simmpi/runtime.hpp"

namespace {

using mimir::Emitter;
using mimir::Job;
using mimir::JobConfig;
using mimir::KVContainer;
using mimir::KVHint;
using mimir::KVView;
using simmpi::Context;

void sum_reduce(std::string_view key, mimir::ValueReader& values,
                Emitter& out) {
  std::uint64_t total = 0;
  std::string_view v;
  while (values.next(v)) total += mimir::as_u64(v);
  out.emit(key, total);
}

TEST(Checkpoint, ContainerRoundTrips) {
  simmpi::run_test(3, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 512);
    for (int i = 0; i < 50; ++i) {
      std::string key = std::string("r").append(std::to_string(ctx.rank()));
      key.append("k").append(std::to_string(i));
      kvc.append(key, "value" + std::to_string(i));
    }
    mimir::save_container(ctx, kvc, "trip");
    EXPECT_TRUE(mimir::checkpoint_exists(ctx, "trip"));

    const KVContainer loaded = mimir::load_container(ctx, "trip", 512);
    EXPECT_EQ(loaded.num_kvs(), kvc.num_kvs());
    EXPECT_EQ(loaded.data_bytes(), kvc.data_bytes());
    std::map<std::string, std::string> original, restored;
    kvc.scan([&](const KVView& kv) {
      original[std::string(kv.key)] = std::string(kv.value);
    });
    loaded.scan([&](const KVView& kv) {
      restored[std::string(kv.key)] = std::string(kv.value);
    });
    EXPECT_EQ(original, restored);
  });
}

TEST(Checkpoint, PreservesHint) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 512, KVHint::string_key_u64_value());
    kvc.append("word", mimir::as_view(std::uint64_t{7}));
    mimir::save_container(ctx, kvc, "hinted");
    const KVContainer loaded = mimir::load_container(ctx, "hinted", 512);
    EXPECT_EQ(loaded.codec().hint(), KVHint::string_key_u64_value());
    loaded.scan([](const KVView& kv) {
      EXPECT_EQ(kv.key, "word");
      EXPECT_EQ(mimir::as_u64(kv.value), 7u);
    });
  });
}

TEST(Checkpoint, MissingCheckpointDetectedAndThrows) {
  simmpi::run_test(2, [](Context& ctx) {
    EXPECT_FALSE(mimir::checkpoint_exists(ctx, "never-saved"));
  });
  EXPECT_THROW(
      simmpi::run_test(1,
                       [](Context& ctx) {
                         (void)mimir::load_container(ctx, "never-saved",
                                                     512);
                       }),
      mutil::IoError);
}

TEST(Checkpoint, WorldSizeMismatchRejected) {
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, 4);
  simmpi::run(2, machine, fs, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 512);
    kvc.append("k", "v");
    mimir::save_container(ctx, kvc, "sized");
  });
  EXPECT_THROW(simmpi::run(4, machine, fs,
                           [](Context& ctx) {
                             (void)mimir::load_container(ctx, "sized", 512);
                           }),
               mutil::IoError);
}

TEST(Checkpoint, RemoveDeletesShards) {
  simmpi::run_test(2, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 512);
    kvc.append("k", "v");
    mimir::save_container(ctx, kvc, "gone");
    EXPECT_TRUE(mimir::checkpoint_exists(ctx, "gone"));
    mimir::remove_checkpoint(ctx, "gone");
    EXPECT_FALSE(mimir::checkpoint_exists(ctx, "gone"));
  });
}

TEST(Checkpoint, FailAfterMapThenResumeMatchesUninterruptedRun) {
  // The fault-tolerance scenario: a job checkpoints after the expensive
  // map+aggregate, "fails" during reduce, and a second incarnation
  // resumes from the checkpoint. Results must match an uninterrupted
  // run exactly.
  constexpr int kRanks = 4;
  auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);

  const auto produce = [](Context& ctx, Emitter& out) {
    for (int i = 0; i < 400; ++i) {
      out.emit(
          std::string("g").append(std::to_string((i * 13 + ctx.rank()) % 37)),
          std::uint64_t{1});
    }
  };
  const auto collect = [](Context& ctx, Job& job) {
    std::uint64_t digest = 0;
    job.output().scan([&](const KVView& kv) {
      digest += mutil::hash_bytes(kv.key) * mimir::as_u64(kv.value);
    });
    return ctx.comm.allreduce_u64(digest, simmpi::Op::kSum);
  };

  // Uninterrupted reference run.
  std::uint64_t expected = 0;
  simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
    Job job(ctx, {});
    job.map_custom([&](Emitter& out) { produce(ctx, out); });
    job.reduce(sum_reduce);
    const auto digest = collect(ctx, job);
    if (ctx.rank() == 0) expected = digest;
  });

  // Run 1: map, checkpoint, then die mid-reduce.
  EXPECT_THROW(
      simmpi::run(kRanks, machine, fs,
                  [&](Context& ctx) {
                    Job job(ctx, {});
                    job.map_custom(
                        [&](Emitter& out) { produce(ctx, out); });
                    mimir::checkpoint_job(job, "wc");
                    throw mutil::Error("injected node failure");
                  }),
      mutil::Error);

  // Run 2: resume from the checkpoint; no map phase re-executed.
  std::uint64_t resumed_digest = 0;
  simmpi::run(kRanks, machine, fs, [&](Context& ctx) {
    ASSERT_TRUE(mimir::checkpoint_exists(ctx, "wc"));
    Job job = mimir::resume_job(ctx, {}, "wc");
    job.reduce(sum_reduce);
    const auto digest = collect(ctx, job);
    if (ctx.rank() == 0) resumed_digest = digest;
  });
  EXPECT_EQ(resumed_digest, expected);
}

TEST(Checkpoint, ResumedJobSupportsPartialReduce) {
  simmpi::run_test(2, [](Context& ctx) {
    Job job(ctx, {});
    job.map_custom([&](Emitter& out) {
      for (int i = 0; i < 100; ++i) out.emit("key", std::uint64_t{1});
    });
    mimir::checkpoint_job(job, "pr");
    Job again = mimir::resume_job(ctx, {}, "pr");
    again.partial_reduce([](std::string_view, std::string_view a,
                            std::string_view b, std::string& out) {
      out.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
    });
    std::uint64_t local = 0;
    again.output().scan(
        [&](const KVView& kv) { local += mimir::as_u64(kv.value); });
    EXPECT_EQ(ctx.comm.allreduce_u64(local, simmpi::Op::kSum), 200u);
  });
}

TEST(Checkpoint, IoChargedToSimulatedClock) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.pfs_latency = 0.01;
  pfs::FileSystem fs(machine, 1);
  simmpi::run(1, machine, fs, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 512);
    for (int i = 0; i < 20; ++i) {
      kvc.append(std::string("k").append(std::to_string(i)), "v");
    }
    const double before = ctx.clock().now();
    mimir::save_container(ctx, kvc, "cost");
    EXPECT_GT(ctx.clock().now(), before + 0.01);
  });
}

}  // namespace
