#include "mimir/convert.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "inject/fault.hpp"
#include "memtrack/tracker.hpp"
#include "mutil/hash.hpp"
#include "stats/registry.hpp"

namespace mimir {

namespace {

/// Key hash for ConvertIndex: a word at a time, then mix64's avalanche
/// for the low bits the probe masks. Index-local on purpose: the KMV
/// layout follows first-encounter order and the table grows with the
/// group count, so this hash moves neither the output nor the tracked
/// memory. Partitioning and the combine table, whose outcomes follow
/// their hash, keep mutil::hash_bytes.
std::uint64_t index_hash(std::string_view key) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = key.data();
  std::size_t n = key.size();
  std::uint64_t h = n * kMul;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (n >= 4) {
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    h ^= (std::uint64_t{hi} << 32) | lo;
  } else if (n > 0) {
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])};
    };
    h ^= (byte(0) << 16) | (byte(n / 2) << 8) | byte(n - 1);
  }
  return mutil::mix64(h);
}

/// Hash index over unique keys used by both convert passes. Key bytes
/// are *referenced*, not copied: during pass 1 they point into the
/// source KV pages; after layout they are swung to the KMV container's
/// stable copies so pass 2 can free source pages as it drains them.
class ConvertIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Group {
    KMVContainer::Slot slot;
    std::string_view key;  ///< borrowed; rebound to KMVC storage at layout
    std::uint32_t count = 0;
    std::uint64_t values_total = 0;
  };

  /// `copy_keys` must be true when the input container streams from a
  /// spill file: its key views are transient, so pass-1 copies them
  /// into a tracked arena; in-memory inputs are borrowed (no copies,
  /// which keeps the paper's memory profile).
  ConvertIndex(memtrack::Tracker& tracker, bool copy_keys)
      : tracker_(&tracker), copy_keys_(copy_keys) {
    const memtrack::TagScope tag("convert");
    slots_ = memtrack::TrackedBuffer(*tracker_, kInitial * sizeof(Entry));
    slot_count_ = kInitial;
    std::fill_n(reinterpret_cast<Entry*>(slots_.data()), slot_count_,
                Entry{});
  }

  /// Find or create the group for `key`; returns its index.
  std::uint32_t upsert(std::string_view key) {
    const std::uint64_t hash = index_hash(key);
    Entry* slot = probe(hash, key);
    if (slot->group != kNone) return slot->group;
    if (static_cast<double>(groups_.size() + 1) >
        0.7 * static_cast<double>(slot_count_)) {
      grow();
      slot = probe(hash, key);
    }
    if (copy_keys_) key = stash(key);
    slot->hash = hash;
    slot->key = key.data();
    slot->key_len = static_cast<std::uint32_t>(key.size());
    slot->group = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
    groups_.back().key = key;
    return slot->group;
  }

  /// Lookup only (pass 2); the key must exist.
  std::uint32_t find(std::string_view key) const {
    const std::uint64_t hash = index_hash(key);
    const Entry* slot =
        const_cast<ConvertIndex*>(this)->probe(hash, key);
    return slot->group;
  }

  /// Re-point an entry's key bytes at stable storage. Probing with the
  /// new view finds the old entry because the contents are identical.
  void rebind_key(std::string_view key) {
    Entry* slot = probe(index_hash(key), key);
    slot->key = key.data();
  }

  std::vector<Group>& groups() noexcept { return groups_; }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    const char* key = nullptr;
    std::uint32_t key_len = 0;
    std::uint32_t group = kNone;
  };

  static constexpr std::uint64_t kInitial = 1024;

  Entry* probe(std::uint64_t hash, std::string_view key) {
    auto* entries = reinterpret_cast<Entry*>(slots_.data());
    std::uint64_t idx = hash & (slot_count_ - 1);
    for (;;) {
      Entry& e = entries[idx];
      if (e.group == kNone ||
          (e.hash == hash &&
           std::string_view(e.key, e.key_len) == key)) {
        return &e;
      }
      idx = (idx + 1) & (slot_count_ - 1);
    }
  }

  /// Copy a key into the arena and return a stable view of it.
  std::string_view stash(std::string_view key) {
    if (arena_.empty() || arena_used_ + key.size() > arena_.back().size()) {
      const memtrack::TagScope tag("convert");
      arena_.push_back(memtrack::TrackedBuffer(
          *tracker_,
          std::max<std::size_t>(key.size(), std::size_t{64} << 10)));
      arena_used_ = 0;
    }
    std::byte* dst = arena_.back().data() + arena_used_;
    std::memcpy(dst, key.data(), key.size());
    arena_used_ += key.size();
    return {reinterpret_cast<const char*>(dst), key.size()};
  }

  void grow() {
    const std::uint64_t bigger_count = slot_count_ * 2;
    const memtrack::TagScope tag("convert");
    memtrack::TrackedBuffer bigger(*tracker_,
                                   bigger_count * sizeof(Entry));
    auto* fresh = reinterpret_cast<Entry*>(bigger.data());
    std::fill_n(fresh, bigger_count, Entry{});
    const auto* old = reinterpret_cast<const Entry*>(slots_.data());
    for (std::uint64_t i = 0; i < slot_count_; ++i) {
      if (old[i].group == kNone) continue;
      std::uint64_t idx = old[i].hash & (bigger_count - 1);
      while (fresh[idx].group != kNone) {
        idx = (idx + 1) & (bigger_count - 1);
      }
      fresh[idx] = old[i];
    }
    slots_ = std::move(bigger);
    slot_count_ = bigger_count;
  }

  memtrack::Tracker* tracker_;
  bool copy_keys_;
  memtrack::TrackedBuffer slots_;
  std::uint64_t slot_count_ = 0;
  std::vector<Group> groups_;
  std::deque<memtrack::TrackedBuffer> arena_;
  std::size_t arena_used_ = 0;
};

}  // namespace

KMVContainer convert(simmpi::Context& ctx, KVContainer& input,
                     std::uint64_t page_size, ConvertStats* stats) {
  const stats::PhaseScope phase("convert");
  inject::phase_point("convert");
  const KVHint hint = input.codec().hint();
  KMVContainer kmvc(ctx.tracker, page_size, hint);
  ConvertIndex index(ctx.tracker, input.spilled());

  // Pass 1: per-key sizes and counts.
  const std::uint64_t input_kvs = input.num_kvs();
  {
    const stats::PhaseScope pass1("convert.pass1");
    input.scan([&](const KVView& kv) {
      auto& group = index.groups()[index.upsert(kv.key)];
      ++group.count;
      group.values_total += kv.value.size();
    });
    ctx.clock().advance(static_cast<double>(input.data_bytes()) /
                        ctx.machine.reduce_rate);
  }

  // Layout: reserve every KMV record in first-encounter order, then
  // swing the index's key references to the KMVC's stable copies so the
  // source pages can be freed while pass 2 still performs lookups.
  for (auto& group : index.groups()) {
    group.slot = kmvc.reserve(group.key, group.count, group.values_total);
    const std::string_view stable = kmvc.key_of(group.slot);
    index.rebind_key(stable);
    group.key = stable;
  }

  // Pass 2: drain the source, filling reserved value slots; source pages
  // are freed page by page.
  {
    const stats::PhaseScope pass2("convert.pass2");
    input.consume([&](const KVView& kv) {
      auto& group = index.groups()[index.find(kv.key)];
      kmvc.add_value(group.slot, kv.value);
    });
    ctx.clock().advance(static_cast<double>(kmvc.data_bytes()) /
                        ctx.machine.reduce_rate);
  }

  if (stats::Registry* reg = stats::current()) {
    reg->add("convert.input_kvs", input_kvs);
    reg->add("convert.unique_keys", kmvc.num_kmvs());
    reg->add("convert.kmv_bytes", kmvc.data_bytes());
  }
  if (stats != nullptr) {
    stats->input_kvs = input_kvs;
    stats->unique_keys = kmvc.num_kmvs();
    stats->kmv_bytes = kmvc.data_bytes();
  }
  return kmvc;
}

}  // namespace mimir
