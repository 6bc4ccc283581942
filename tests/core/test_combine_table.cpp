#include "mimir/combine_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace {

using mimir::CombineTable;
using mimir::KVHint;
using mimir::KVView;

/// WordCount-style combiner: sum two u64 values.
void sum_u64(std::string_view, std::string_view a, std::string_view b,
             std::string& out) {
  const std::uint64_t total = mimir::as_u64(a) + mimir::as_u64(b);
  out.assign(mimir::as_view(total));
}

/// Concatenating combiner: value size grows on every combine.
void concat(std::string_view, std::string_view a, std::string_view b,
            std::string& out) {
  out.assign(a);
  out.append(",");
  out.append(b);
}

std::map<std::string, std::string> drain(const CombineTable& table) {
  std::map<std::string, std::string> out;
  table.for_each([&](const KVView& kv) {
    out[std::string(kv.key)] = std::string(kv.value);
  });
  return out;
}

TEST(CombineTable, RequiresCombiner) {
  memtrack::Tracker tracker;
  EXPECT_THROW(CombineTable(tracker, 256, {}, nullptr),
               mutil::ConfigError);
}

TEST(CombineTable, DistinctKeysPassThrough) {
  memtrack::Tracker tracker;
  CombineTable table(tracker, 1024, KVHint::string_key_u64_value(),
                     sum_u64);
  table.upsert("a", mimir::as_view(std::uint64_t{1}));
  table.upsert("b", mimir::as_view(std::uint64_t{2}));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.combined_kvs(), 0u);
}

TEST(CombineTable, DuplicatesCombineInPlace) {
  memtrack::Tracker tracker;
  CombineTable table(tracker, 1024, KVHint::string_key_u64_value(),
                     sum_u64);
  for (int i = 0; i < 100; ++i) {
    table.upsert("word", mimir::as_view(std::uint64_t{1}));
  }
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.combined_kvs(), 99u);
  EXPECT_EQ(table.dead_bytes(), 0u) << "fixed-size values combine in place";
  const auto result = drain(table);
  EXPECT_EQ(mimir::as_u64(result.at("word")), 100u);
}

TEST(CombineTable, SizeChangingCombineLeavesGarbage) {
  memtrack::Tracker tracker;
  CombineTable table(tracker, 1024, {}, concat);
  table.upsert("k", "a");
  table.upsert("k", "b");
  table.upsert("k", "c");
  EXPECT_EQ(table.size(), 1u);
  EXPECT_GT(table.dead_bytes(), 0u);
  EXPECT_EQ(drain(table).at("k"), "a,b,c");
}

TEST(CombineTable, GrowsPastInitialCapacity) {
  memtrack::Tracker tracker;
  CombineTable table(tracker, 4096, KVHint::string_key_u64_value(),
                     sum_u64);
  constexpr int kKeys = 5000;  // > initial 1024 slots
  for (int i = 0; i < kKeys; ++i) {
    table.upsert("key" + std::to_string(i),
                 mimir::as_view(std::uint64_t{1}));
  }
  EXPECT_EQ(table.size(), static_cast<std::uint64_t>(kKeys));
  // Every key still reachable and correct after rehashing.
  for (int i = 0; i < kKeys; i += 500) {
    table.upsert("key" + std::to_string(i),
                 mimir::as_view(std::uint64_t{10}));
  }
  const auto result = drain(table);
  EXPECT_EQ(mimir::as_u64(result.at("key0")), 11u);
  EXPECT_EQ(mimir::as_u64(result.at("key1")), 1u);
}

TEST(CombineTable, VisitOrderIsPinned) {
  // for_each visits the table in slot order, which follows
  // mutil::hash_bytes and the probe sequence. A combined shuffle emits
  // in this order, so it fixes where rounds end and hence simulated
  // time. The expected orders are recorded values: a change to the
  // table's hash or probing fails here before it moves a benchmark.
  memtrack::Tracker tracker;
  CombineTable small(tracker, 4096, KVHint::string_key_u64_value(), sum_u64);
  for (const char* word : {"the", "of", "and", "to", "in", "a", "is",
                           "that", "for", "it", "as", "was"}) {
    small.upsert(word, mimir::as_view(std::uint64_t{1}));
  }
  std::vector<std::string> order;
  small.for_each([&](const KVView& kv) { order.emplace_back(kv.key); });
  EXPECT_EQ(order, (std::vector<std::string>{"that", "to", "a", "it", "is",
                                             "as", "for", "of", "and", "in",
                                             "was", "the"}));

  // 3000 keys: two rehashes. The digest folds the visit order.
  CombineTable large(tracker, 4096, KVHint::variable(), sum_u64);
  for (int i = 0; i < 3000; ++i) {
    large.upsert("key" + std::to_string(i),
                 mimir::as_view(std::uint64_t{1}));
  }
  std::uint64_t digest = 0;
  std::vector<std::string> head;
  large.for_each([&](const KVView& kv) {
    digest = digest * 1000003 + std::stoull(std::string(kv.key.substr(3)));
    if (head.size() < 4) head.emplace_back(kv.key);
  });
  EXPECT_EQ(head, (std::vector<std::string>{"key292", "key2208", "key1695",
                                            "key2463"}));
  EXPECT_EQ(digest, 5210232509395629560u);
}

TEST(CombineTable, MemoryChargedAndReleased) {
  memtrack::Tracker tracker;
  {
    CombineTable table(tracker, 1024, KVHint::string_key_u64_value(),
                       sum_u64);
    for (int i = 0; i < 1000; ++i) {
      table.upsert(std::string("k").append(std::to_string(i)),
                   mimir::as_view(std::uint64_t{1}));
    }
    EXPECT_GT(tracker.current(), 0u);
    table.clear();
    // Slots stay allocated after clear, arena is gone.
    EXPECT_GT(tracker.current(), 0u);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.live_bytes(), 0u);
  }
  EXPECT_EQ(tracker.current(), 0u);
}

TEST(CombineTable, ClearThenReuse) {
  memtrack::Tracker tracker;
  CombineTable table(tracker, 1024, KVHint::string_key_u64_value(),
                     sum_u64);
  table.upsert("a", mimir::as_view(std::uint64_t{5}));
  table.clear();
  table.upsert("a", mimir::as_view(std::uint64_t{7}));
  const auto result = drain(table);
  EXPECT_EQ(mimir::as_u64(result.at("a")), 7u);
}

TEST(CombineTable, SizeChangingCombinesKeepFootprintBounded) {
  // Regression: before compaction existed, every size-changing combine
  // left its superseded record in the arena forever, so a growing-value
  // workload ballooned the footprint without bound. The arena must now
  // stay within a small multiple of the live data, with the transient
  // compaction copy keeping the tracker peak bounded too.
  memtrack::Tracker tracker;
  constexpr std::uint64_t kPage = 1024;
  CombineTable table(tracker, kPage, {}, concat);
  std::map<std::string, std::string> reference;
  for (int round = 0; round < 400; ++round) {
    for (int k = 0; k < 8; ++k) {
      const std::string key = std::string("k").append(std::to_string(k));
      const std::string piece = std::to_string(round);
      table.upsert(key, piece);
      if (reference[key].empty()) {
        reference[key] = piece;
      } else {
        reference[key] += "," + piece;
      }
    }
  }
  EXPECT_GT(table.compactions(), 0u);
  // Invariant from the header: dead bytes never exceed
  // max(live_bytes, page) before compaction fires, so the arena holds at
  // most live + dead + one page of slack per page boundary. Allow 3x
  // live + a couple of pages of slack as the bound.
  EXPECT_LE(table.arena_bytes(), 3 * table.live_bytes() + 4 * kPage)
      << "arena grew out of proportion to live data";
  EXPECT_LE(table.dead_bytes(),
            std::max(table.live_bytes(), kPage));
  // The peak includes one transient copy of the live data during
  // compaction; it must not scale with the total garbage ever produced
  // (which is ~100x the live size in this workload).
  EXPECT_LE(tracker.peak(), 8 * table.live_bytes() + 16 * kPage)
      << "compaction peak not bounded";
  // Compaction preserved every record.
  const auto result = drain(table);
  for (const auto& [key, expected] : reference) {
    EXPECT_EQ(result.at(key), expected) << key;
  }
}

// Property: combining N random increments per key equals the serial sum,
// for several key cardinalities.
class CombineSumProperty : public ::testing::TestWithParam<int> {};

TEST_P(CombineSumProperty, MatchesSerialSums) {
  const int num_keys = GetParam();
  memtrack::Tracker tracker;
  CombineTable table(tracker, 4096, KVHint::string_key_u64_value(),
                     sum_u64);
  std::map<std::string, std::uint64_t> reference;
  std::uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::string key =
        "k" + std::to_string(state % static_cast<unsigned>(num_keys));
    const std::uint64_t inc = (state >> 33) % 10;
    reference[key] += inc;
    table.upsert(key, mimir::as_view(inc));
  }
  EXPECT_EQ(table.size(), reference.size());
  const auto result = drain(table);
  for (const auto& [key, total] : reference) {
    EXPECT_EQ(mimir::as_u64(result.at(key)), total) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyCardinalities, CombineSumProperty,
                         ::testing::Values(1, 16, 1000, 20000));

}  // namespace
