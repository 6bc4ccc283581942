#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mimir/containers.hpp"
#include "mimir/convert.hpp"
#include "mimir/shuffle.hpp"
#include "mutil/hash.hpp"
#include "simmpi/runtime.hpp"

namespace {

using mimir::KVContainer;
using mimir::KVView;
using mimir::Shuffle;
using simmpi::Context;

TEST(Shuffle, RoutesEveryKeyToItsHashOwner) {
  constexpr int kRanks = 4;
  simmpi::run_test(kRanks, [](Context& ctx) {
    KVContainer dest(ctx.tracker, 4096);
    Shuffle shuffle(ctx, 4096, {}, dest);
    for (int i = 0; i < 200; ++i) {
      shuffle.emit("key" + std::to_string(i), "v");
    }
    shuffle.finalize();
    // Every received key must hash to this rank.
    dest.scan([&](const KVView& kv) {
      EXPECT_EQ(mutil::hash_bytes(kv.key) %
                    static_cast<std::uint64_t>(ctx.size()),
                static_cast<std::uint64_t>(ctx.rank()));
    });
    // Total across ranks preserved.
    const auto total = ctx.comm.allreduce_u64(dest.num_kvs(),
                                              simmpi::Op::kSum);
    EXPECT_EQ(total, 200u * kRanks);
  });
}

TEST(Shuffle, SmallBufferForcesManyRounds) {
  simmpi::run_test(2, [](Context& ctx) {
    KVContainer dest(ctx.tracker, 4096);
    // 64-byte buffer -> 32-byte partitions: a few KVs per round.
    Shuffle shuffle(ctx, 64, {}, dest);
    for (int i = 0; i < 100; ++i) {
      shuffle.emit(std::string("k").append(std::to_string(i)), "value");
    }
    shuffle.finalize();
    EXPECT_GT(shuffle.rounds(), 5u);
    const auto total = ctx.comm.allreduce_u64(dest.num_kvs(),
                                              simmpi::Op::kSum);
    EXPECT_EQ(total, 200u);
  });
}

TEST(Shuffle, ImbalancedProducersStillTerminate) {
  // Only rank 0 produces; everyone else must keep participating in the
  // exchange protocol until rank 0 drains.
  simmpi::run_test(3, [](Context& ctx) {
    KVContainer dest(ctx.tracker, 4096);
    Shuffle shuffle(ctx, 96, {}, dest);
    if (ctx.rank() == 0) {
      for (int i = 0; i < 300; ++i) {
        shuffle.emit("key" + std::to_string(i), "v");
      }
    }
    shuffle.finalize();
    const auto total = ctx.comm.allreduce_u64(dest.num_kvs(),
                                              simmpi::Op::kSum);
    EXPECT_EQ(total, 300u);
  });
}

TEST(Shuffle, SkewedKeysNeverOverflowReceiveBuffer) {
  // All KVs share one key -> one rank receives everything. The paper's
  // §III-B argues the receive buffer still never overflows because each
  // sender is bounded by its partition size.
  simmpi::run_test(4, [](Context& ctx) {
    KVContainer dest(ctx.tracker, 4096);
    Shuffle shuffle(ctx, 256, {}, dest);
    for (int i = 0; i < 200; ++i) {
      shuffle.emit("hot", "xxxxxxxx");
    }
    shuffle.finalize();
    const auto total = ctx.comm.allreduce_u64(dest.num_kvs(),
                                              simmpi::Op::kSum);
    EXPECT_EQ(total, 800u);
    const auto mine = dest.num_kvs();
    EXPECT_TRUE(mine == 0 || mine == 800u);
  });
}

TEST(Shuffle, OversizedKvRejected) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         KVContainer dest(ctx.tracker, 4096);
                         Shuffle shuffle(ctx, 64, {}, dest);
                         shuffle.emit("key", std::string(100, 'x'));
                       }),
      mutil::UsageError);
}

TEST(Shuffle, EmitAfterFinalizeRejected) {
  EXPECT_THROW(simmpi::run_test(1,
                                [](Context& ctx) {
                                  KVContainer dest(ctx.tracker, 4096);
                                  Shuffle shuffle(ctx, 64, {}, dest);
                                  shuffle.finalize();
                                  shuffle.emit("k", "v");
                                }),
               mutil::UsageError);
}

TEST(Shuffle, NegativePartitionerResultRejectedWhileSigned) {
  // Regression: the partitioner's int result used to be cast straight to
  // size_t, so a buggy partitioner returning -1 either indexed the
  // partition table at 2^64-1 or surfaced as a nonsense "rank
  // 18446744073709551615" error. The check must happen on the signed
  // value and the error must name the partitioner contract.
  try {
    simmpi::run_test(2, [](Context& ctx) {
      KVContainer dest(ctx.tracker, 4096);
      Shuffle shuffle(ctx, 256, {}, dest,
                      [](std::string_view, int) { return -1; });
      shuffle.emit("k", "v");
    });
    FAIL() << "expected UsageError";
  } catch (const mutil::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("partitioner returned rank -1"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("partitioner contract"),
              std::string::npos)
        << e.what();
  }
}

TEST(Shuffle, OutOfRangePartitionerResultRejected) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         KVContainer dest(ctx.tracker, 4096);
                         Shuffle shuffle(
                             ctx, 256, {}, dest,
                             [](std::string_view, int nranks) {
                               return nranks;  // one past the end
                             });
                         shuffle.emit("k", "v");
                       }),
      mutil::UsageError);
}

TEST(Convert, GroupsValuesByKey) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 4096);
    kvc.append("a", "1");
    kvc.append("b", "2");
    kvc.append("a", "3");
    kvc.append("c", "4");
    kvc.append("a", "5");
    mimir::ConvertStats stats;
    auto kmvc = mimir::convert(ctx, kvc, 4096, &stats);
    EXPECT_EQ(stats.input_kvs, 5u);
    EXPECT_EQ(stats.unique_keys, 3u);
    EXPECT_TRUE(kvc.empty()) << "convert consumes its input";

    std::map<std::string, std::string> joined;
    kmvc.for_each([&](std::string_view key, mimir::ValueReader& values) {
      std::string acc;
      std::string_view v;
      while (values.next(v)) acc.append(v);
      joined[std::string(key)] = acc;
    });
    EXPECT_EQ(joined.at("a"), "135");
    EXPECT_EQ(joined.at("b"), "2");
    EXPECT_EQ(joined.at("c"), "4");
  });
}

TEST(Convert, ManyKeysSurviveRehash) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 1 << 16);
    constexpr int kKeys = 4000;  // > initial index capacity
    for (int pass = 0; pass < 3; ++pass) {
      for (int i = 0; i < kKeys; ++i) {
        kvc.append(std::string("key").append(std::to_string(i)),
                   std::string("v").append(std::to_string(pass)));
      }
    }
    mimir::ConvertStats stats;
    auto kmvc = mimir::convert(ctx, kvc, 1 << 16, &stats);
    EXPECT_EQ(stats.unique_keys, static_cast<std::uint64_t>(kKeys));
    kmvc.for_each([&](std::string_view, mimir::ValueReader& values) {
      EXPECT_EQ(values.count(), 3u);
    });
  });
}

TEST(Convert, PreservesPerKeyValueOrderWithinRank) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 4096);
    for (int i = 0; i < 10; ++i) {
      kvc.append("k", std::to_string(i));
    }
    auto kmvc = mimir::convert(ctx, kvc, 4096);
    kmvc.for_each([&](std::string_view, mimir::ValueReader& values) {
      std::string_view v;
      int expected = 0;
      while (values.next(v)) {
        EXPECT_EQ(v, std::to_string(expected++));
      }
      EXPECT_EQ(expected, 10);
    });
  });
}

TEST(Convert, RecordsFollowFirstEncounterOrderWhateverTheIndexHash) {
  // The KMV layout is first-encounter order, never the index's slot
  // order; that is what lets the index hash be local to convert. 3000
  // keys take the index through two rehashes, and a spilled input takes
  // pass 1's copied-key path.
  constexpr std::uint64_t kKeys = 3000;
  for (const mimir::KVHint hint :
       {mimir::KVHint::variable(), mimir::KVHint::string_key_u64_value()}) {
    for (const bool spill : {false, true}) {
      SCOPED_TRACE(std::string(hint.key_is_variable() ? "variable" : "string") +
                   (spill ? ", spilled input" : ", in-memory input"));
      simmpi::run_test(1, [&](Context& ctx) {
        KVContainer kvc(ctx.tracker, 4096, hint);
        if (spill) {
          kvc.enable_spill({&ctx.fs, &ctx.clock(), "spill/order", 16 << 10});
        }
        // Each key once per round, in a different order each round, so
        // round 0 alone fixes the first-encounter order.
        std::vector<std::string> first_seen;
        for (std::uint64_t round = 0; round < 3; ++round) {
          for (std::uint64_t i = 0; i < kKeys; ++i) {
            const std::uint64_t k = (i * 1237 + round * 17) % kKeys;
            const std::string key =
                std::string("w").append(std::to_string(k * 7919 % 100003));
            if (round == 0) first_seen.push_back(key);
            const std::uint64_t seq = round * kKeys + i;
            kvc.append(key, mimir::as_view(seq));
          }
        }
        EXPECT_EQ(kvc.spilled(), spill);
        auto kmvc = mimir::convert(ctx, kvc, 4096);
        std::vector<std::string> order;
        kmvc.for_each([&](std::string_view key, mimir::ValueReader& values) {
          order.emplace_back(key);
          std::vector<std::uint64_t> seqs;
          std::string_view v;
          while (values.next(v)) seqs.push_back(mimir::as_u64(v));
          ASSERT_EQ(seqs.size(), 3u);
          EXPECT_LT(seqs[0], seqs[1]);
          EXPECT_LT(seqs[1], seqs[2]);
        });
        EXPECT_EQ(order, first_seen);
      });
    }
  }
}

TEST(Convert, EmptyInputYieldsEmptyOutput) {
  simmpi::run_test(1, [](Context& ctx) {
    KVContainer kvc(ctx.tracker, 4096);
    mimir::ConvertStats stats;
    auto kmvc = mimir::convert(ctx, kvc, 4096, &stats);
    EXPECT_EQ(stats.unique_keys, 0u);
    EXPECT_TRUE(kmvc.empty());
  });
}

}  // namespace
