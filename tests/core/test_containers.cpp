#include "mimir/containers.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mutil/error.hpp"
#include "pfs/filesystem.hpp"
#include "simtime/clock.hpp"
#include "simtime/machine.hpp"

namespace {

using mimir::KVContainer;
using mimir::KMVContainer;
using mimir::KVHint;
using mimir::KVView;
using mimir::ValueReader;

TEST(KVContainer, AppendAndScan) {
  memtrack::Tracker tracker;
  KVContainer kvc(tracker, 1024);
  kvc.append("alpha", "1");
  kvc.append("beta", "22");
  EXPECT_EQ(kvc.num_kvs(), 2u);
  std::vector<std::string> seen;
  kvc.scan([&](const KVView& kv) {
    seen.push_back(std::string(kv.key) + "=" + std::string(kv.value));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "alpha=1");
  EXPECT_EQ(seen[1], "beta=22");
}

TEST(KVContainer, GrowsPagesOnDemand) {
  memtrack::Tracker tracker;
  KVContainer kvc(tracker, 64);
  for (int i = 0; i < 50; ++i) {
    kvc.append("key" + std::to_string(i), "value");
  }
  EXPECT_GT(kvc.num_pages(), 1u);
  EXPECT_EQ(kvc.num_kvs(), 50u);
  EXPECT_GE(kvc.allocated_bytes(), kvc.data_bytes());
  EXPECT_EQ(tracker.current(), kvc.allocated_bytes());
}

TEST(KVContainer, ConsumeFreesPagesProgressively) {
  memtrack::Tracker tracker;
  KVContainer kvc(tracker, 64);
  for (int i = 0; i < 100; ++i) {
    kvc.append(std::string("k").append(std::to_string(i)), "v");
  }
  const std::uint64_t before = tracker.current();
  std::uint64_t min_seen = before;
  int count = 0;
  kvc.consume([&](const KVView&) {
    ++count;
    min_seen = std::min(min_seen, tracker.current());
  });
  EXPECT_EQ(count, 100);
  EXPECT_LT(min_seen, before) << "pages must be freed during consumption";
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_TRUE(kvc.empty());
}

TEST(KVContainer, OversizedRecordGetsDedicatedPage) {
  memtrack::Tracker tracker;
  KVContainer kvc(tracker, 32);
  const std::string big(500, 'x');
  kvc.append("k", big);
  EXPECT_EQ(kvc.num_kvs(), 1u);
  std::string out;
  kvc.scan([&](const KVView& kv) { out = std::string(kv.value); });
  EXPECT_EQ(out, big);
}

/// One way of filling a container: its hint, page size, whether one KV
/// is larger than a page, and the spill bound (0 = in memory).
struct RepackCase {
  const char* name;
  KVHint hint;
  std::uint64_t page_size;
  bool oversized;
  std::uint64_t spill_live_bytes;
};

/// KVs that fit `c.hint`: keys and values of varying length where the
/// hint allows it, and one value of 300 bytes when `c.oversized`.
std::vector<std::pair<std::string, std::string>> repack_kvs(
    const RepackCase& c) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 80; ++i) {
    std::string key = std::string("k").append(std::to_string(i * 37 % 101));
    if (c.hint.key_len >= 0) {
      key.resize(static_cast<std::size_t>(c.hint.key_len), '_');
    }
    std::string value(static_cast<std::size_t>(i % 13),
                      static_cast<char>('a' + i % 26));
    if (c.hint.value_len == KVHint::kString && value.empty()) value = "s";
    if (c.hint.value_len >= 0) {
      value.resize(static_cast<std::size_t>(c.hint.value_len), '#');
    } else if (c.oversized && i == 41) {
      value.assign(300, 'x');
    }
    kvs.emplace_back(std::move(key), std::move(value));
  }
  return kvs;
}

TEST(KVContainer, AppendEncodedRepacks) {
  // append_encoded copies runs of received records; it must leave the
  // container exactly as per-record append() of the same KVs would.
  const RepackCase cases[] = {
      {"variable, one run", KVHint::variable(), 4096, false, 0},
      {"variable, many runs", KVHint::variable(), 64, false, 0},
      {"variable, record larger than a page", KVHint::variable(), 64, true,
       0},
      {"string key, u64 value", KVHint::string_key_u64_value(), 48, false, 0},
      {"string key and value", KVHint{KVHint::kString, KVHint::kString}, 40,
       true, 0},
      {"fixed", KVHint::fixed(6, 8), 64, false, 0},
      {"variable, spilling", KVHint::variable(), 64, true, 256},
      {"string key, u64 value, spilling", KVHint::string_key_u64_value(), 48,
       false, 128},
  };
  const auto machine = simtime::MachineProfile::test_profile();
  for (const RepackCase& c : cases) {
    SCOPED_TRACE(c.name);
    const auto kvs = repack_kvs(c);
    const mimir::KVCodec codec(c.hint);
    std::vector<std::byte> region;
    for (const auto& [key, value] : kvs) {
      const std::size_t old = region.size();
      region.resize(old + codec.encoded_size(key, value));
      codec.encode(region.data() + old, key, value);
    }

    pfs::FileSystem fs(machine, 1);
    memtrack::Tracker tracker_each, tracker_bulk;
    simtime::Clock clock_each, clock_bulk;
    KVContainer each(tracker_each, c.page_size, c.hint);
    KVContainer bulk(tracker_bulk, c.page_size, c.hint);
    if (c.spill_live_bytes != 0) {
      each.enable_spill({&fs, &clock_each, "each", c.spill_live_bytes});
      bulk.enable_spill({&fs, &clock_bulk, "bulk", c.spill_live_bytes});
    }
    for (const auto& [key, value] : kvs) each.append(key, value);
    // Two receive rounds, split at the first record boundary past the
    // middle: the second round starts on a partly filled page.
    std::size_t split = 0;
    while (split < region.size() / 2) {
      std::size_t bytes = 0;
      (void)codec.decode(region.data() + split, &bytes);
      split += bytes;
    }
    bulk.append_encoded(std::span<const std::byte>(region).first(split));
    bulk.append_encoded(std::span<const std::byte>(region).subspan(split));

    EXPECT_EQ(bulk.num_pages(), each.num_pages());
    EXPECT_EQ(bulk.num_kvs(), kvs.size());
    EXPECT_EQ(bulk.num_kvs(), each.num_kvs());
    EXPECT_EQ(bulk.data_bytes(), each.data_bytes());
    EXPECT_EQ(bulk.allocated_bytes(), each.allocated_bytes());
    EXPECT_EQ(tracker_bulk.current(), tracker_each.current());
    EXPECT_EQ(tracker_bulk.peak(), tracker_each.peak());
    EXPECT_EQ(bulk.spilled_bytes(), each.spilled_bytes());
    EXPECT_EQ(bulk.spilled(), c.spill_live_bytes != 0);
    EXPECT_EQ(clock_bulk.now(), clock_each.now());
    std::vector<std::pair<std::string, std::string>> seen_each, seen_bulk;
    each.scan([&](const KVView& kv) {
      seen_each.emplace_back(kv.key, kv.value);
    });
    bulk.scan([&](const KVView& kv) {
      seen_bulk.emplace_back(kv.key, kv.value);
    });
    EXPECT_EQ(seen_each, kvs);
    EXPECT_EQ(seen_bulk, kvs);
  }
}

TEST(KVContainer, AppendEncodedRejectsARegionEndingInsideARecord) {
  memtrack::Tracker tracker;
  KVContainer kvc(tracker, 64);
  const mimir::KVCodec& codec = kvc.codec();
  std::vector<std::byte> region(codec.encoded_size("key", "value"));
  codec.encode(region.data(), "key", "value");
  region.pop_back();
  EXPECT_THROW(kvc.append_encoded(region), mutil::UsageError);
}

TEST(KVContainer, HintPropagatesToStorage) {
  memtrack::Tracker tracker;
  KVContainer plain(tracker, 4096, KVHint::variable());
  KVContainer hinted(tracker, 4096, KVHint::string_key_u64_value());
  const std::string value(8, 'v');
  for (int i = 0; i < 100; ++i) {
    plain.append("word" + std::to_string(i), value);
    hinted.append("word" + std::to_string(i), value);
  }
  EXPECT_LT(hinted.data_bytes(), plain.data_bytes());
}

TEST(KVContainer, ClearReleasesMemory) {
  memtrack::Tracker tracker;
  KVContainer kvc(tracker, 64);
  for (int i = 0; i < 40; ++i) kvc.append("key", "value");
  EXPECT_GT(tracker.current(), 0u);
  kvc.clear();
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_EQ(kvc.num_kvs(), 0u);
}

TEST(KVContainer, RejectsZeroPageSize) {
  memtrack::Tracker tracker;
  EXPECT_THROW(KVContainer(tracker, 0), mutil::ConfigError);
}

// --- KMV -------------------------------------------------------------------

TEST(KMVContainer, ReserveFillIterate) {
  memtrack::Tracker tracker;
  KMVContainer kmvc(tracker, 1024);
  auto slot = kmvc.reserve("fruit", 3, 5 + 4 + 6);
  kmvc.add_value(slot, "apple");
  kmvc.add_value(slot, "pear");
  kmvc.add_value(slot, "banana");
  auto slot2 = kmvc.reserve("empty", 0, 0);
  (void)slot2;

  std::map<std::string, std::vector<std::string>> seen;
  kmvc.for_each([&](std::string_view key, ValueReader& values) {
    auto& list = seen[std::string(key)];
    std::string_view v;
    while (values.next(v)) list.emplace_back(v);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["fruit"],
            (std::vector<std::string>{"apple", "pear", "banana"}));
  EXPECT_TRUE(seen["empty"].empty());
}

TEST(KMVContainer, ValueReaderRewind) {
  memtrack::Tracker tracker;
  KMVContainer kmvc(tracker, 1024);
  auto slot = kmvc.reserve("k", 2, 2);
  kmvc.add_value(slot, "a");
  kmvc.add_value(slot, "b");
  kmvc.for_each([&](std::string_view, ValueReader& values) {
    EXPECT_EQ(values.count(), 2u);
    std::string_view v;
    EXPECT_TRUE(values.next(v));
    EXPECT_EQ(v, "a");
    values.rewind();
    int n = 0;
    while (values.next(v)) ++n;
    EXPECT_EQ(n, 2);
  });
}

TEST(KMVContainer, FixedValueHintPacksTightly) {
  memtrack::Tracker tracker;
  KMVContainer plain(tracker, 4096, KVHint::variable());
  KMVContainer hinted(tracker, 4096, {KVHint::kString, 8});
  const std::string value(8, 'v');
  auto sp = plain.reserve("key", 4, 32);
  auto sh = hinted.reserve("key", 4, 32);
  for (int i = 0; i < 4; ++i) {
    plain.add_value(sp, value);
    hinted.add_value(sh, value);
  }
  EXPECT_LT(hinted.data_bytes(), plain.data_bytes());
}

TEST(KMVContainer, KeyOfReturnsStableView) {
  memtrack::Tracker tracker;
  KMVContainer kmvc(tracker, 256);
  auto slot = kmvc.reserve("stable-key", 1, 1);
  const std::string_view key = kmvc.key_of(slot);
  kmvc.add_value(slot, "x");
  // Force more pages; the original view must stay valid.
  for (int i = 0; i < 10; ++i) {
    auto s = kmvc.reserve("k" + std::to_string(i), 1, 50);
    kmvc.add_value(s, std::string(50, 'y'));
  }
  EXPECT_EQ(key, "stable-key");
}

TEST(KMVContainer, ConsumeFreesEverything) {
  memtrack::Tracker tracker;
  KMVContainer kmvc(tracker, 128);
  for (int i = 0; i < 30; ++i) {
    auto slot = kmvc.reserve(std::string("k").append(std::to_string(i)), 1, 10);
    kmvc.add_value(slot, std::string(10, 'z'));
  }
  int seen = 0;
  kmvc.consume([&](std::string_view, ValueReader&) { ++seen; });
  EXPECT_EQ(seen, 30);
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_TRUE(kmvc.empty());
}

TEST(KMVContainer, FixedHintViolationsRejected) {
  memtrack::Tracker tracker;
  KMVContainer kmvc(tracker, 256, KVHint::fixed(4, 8));
  EXPECT_THROW(kmvc.reserve("toolong", 1, 8), mutil::UsageError);
  auto slot = kmvc.reserve("four", 1, 8);
  EXPECT_THROW(kmvc.add_value(slot, "tiny"), mutil::UsageError);
}

}  // namespace
