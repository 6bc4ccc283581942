#include "mimir/combine_table.hpp"

#include <algorithm>
#include <cstring>

#include "memtrack/tracker.hpp"
#include "mutil/hash.hpp"

namespace mimir {

namespace {
constexpr std::uint64_t kInitialSlots = 1024;
constexpr double kMaxLoad = 0.7;
}  // namespace

CombineTable::CombineTable(memtrack::Tracker& tracker,
                           std::uint64_t page_size, KVHint hint,
                           CombineFn combiner)
    : tracker_(&tracker),
      page_size_(page_size),
      codec_(hint),
      combiner_(std::move(combiner)) {
  if (!combiner_) {
    throw mutil::ConfigError("CombineTable: combiner callback required");
  }
  const memtrack::TagScope tag("combine_table");
  slots_ = memtrack::TrackedBuffer(*tracker_,
                                   kInitialSlots * sizeof(Entry));
  slot_count_ = kInitialSlots;
  auto* entries = reinterpret_cast<Entry*>(slots_.data());
  std::fill_n(entries, slot_count_, Entry{});
}

CombineTable::Entry* CombineTable::find_slot(std::uint64_t hash,
                                             std::string_view key,
                                             KVView* record,
                                             std::size_t* record_bytes) {
  auto* entries = reinterpret_cast<Entry*>(slots_.data());
  std::uint64_t idx = hash & (slot_count_ - 1);
  for (;;) {
    Entry& slot = entries[idx];
    if (!slot.occupied()) return &slot;
    if (slot.hash == hash) {
      *record = codec_.decode(record_ptr(slot), record_bytes);
      if (record->key == key) return &slot;
    }
    idx = (idx + 1) & (slot_count_ - 1);
  }
}

CombineTable::Entry CombineTable::append_record(std::uint64_t hash,
                                                std::string_view key,
                                                std::string_view value) {
  const std::size_t bytes = codec_.encoded_size(key, value);
  if (arena_.empty() || arena_.back().room() < bytes) {
    const memtrack::TagScope tag("combine_table");
    detail::Page page;
    page.buffer = memtrack::TrackedBuffer(
        *tracker_, std::max<std::size_t>(bytes, page_size_));
    arena_.push_back(std::move(page));
  }
  detail::Page& page = arena_.back();
  Entry entry;
  entry.hash = hash;
  entry.page = static_cast<std::uint32_t>(arena_.size() - 1);
  entry.offset = static_cast<std::uint32_t>(page.used);
  codec_.encode(page.buffer.data() + page.used, key, value);
  page.used += bytes;
  live_bytes_ += bytes;
  return entry;
}

void CombineTable::grow() {
  const std::uint64_t new_count = slot_count_ * 2;
  const memtrack::TagScope tag("combine_table");
  memtrack::TrackedBuffer bigger(*tracker_, new_count * sizeof(Entry));
  auto* fresh = reinterpret_cast<Entry*>(bigger.data());
  std::fill_n(fresh, new_count, Entry{});
  const auto* old = reinterpret_cast<const Entry*>(slots_.data());
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    if (!old[i].occupied()) continue;
    std::uint64_t idx = old[i].hash & (new_count - 1);
    while (fresh[idx].occupied()) idx = (idx + 1) & (new_count - 1);
    fresh[idx] = old[i];
  }
  slots_ = std::move(bigger);
  slot_count_ = new_count;
}

void CombineTable::upsert(std::string_view key, std::string_view value) {
  const std::uint64_t hash = mutil::hash_bytes(key);
  KVView existing;
  std::size_t consumed = 0;
  Entry* slot = find_slot(hash, key, &existing, &consumed);
  if (!slot->occupied()) {
    if (static_cast<double>(live_entries_ + 1) >
        kMaxLoad * static_cast<double>(slot_count_)) {
      grow();
      slot = find_slot(hash, key, &existing, &consumed);
    }
    *slot = append_record(hash, key, value);
    ++live_entries_;
    return;
  }

  // Duplicate key: combine the stored value (as find_slot decoded it)
  // with the incoming one.
  scratch_.clear();
  combiner_(key, existing.value, value, scratch_);
  ++combined_kvs_;

  if (scratch_.size() == existing.value.size()) {
    // Same size: overwrite the value bytes in place.
    auto* dst = const_cast<std::byte*>(
        reinterpret_cast<const std::byte*>(existing.value.data()));
    std::memcpy(dst, scratch_.data(), scratch_.size());
    return;
  }
  // Size changed: retire the old record and append a fresh one.
  dead_bytes_ += consumed;
  live_bytes_ -= consumed;
  *slot = append_record(hash, key, scratch_);
  // Without a bound, a workload whose combines keep changing value
  // sizes (e.g. growing postings lists) leaves every superseded record
  // in the arena and the bucket's footprint grows without limit even
  // though its live contents do not. Compact once garbage exceeds the
  // live data (the page_size_ floor avoids churning on tiny tables);
  // the transient copy during compaction keeps the peak bounded by a
  // constant multiple of the live bytes.
  if (dead_bytes_ > live_bytes_ && dead_bytes_ >= page_size_) {
    compact();
  }
}

void CombineTable::compact() {
  const memtrack::TagScope tag("combine_table");
  std::deque<detail::Page> fresh;
  auto* entries = reinterpret_cast<Entry*>(slots_.data());
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    Entry& e = entries[i];
    if (!e.occupied()) continue;
    const std::byte* src = record_ptr(e);
    std::size_t consumed = 0;
    (void)codec_.decode(src, &consumed);
    if (fresh.empty() || fresh.back().room() < consumed) {
      detail::Page page;
      page.buffer = memtrack::TrackedBuffer(
          *tracker_, std::max<std::uint64_t>(consumed, page_size_));
      fresh.push_back(std::move(page));
    }
    detail::Page& page = fresh.back();
    std::memcpy(page.buffer.data() + page.used, src, consumed);
    e.page = static_cast<std::uint32_t>(fresh.size() - 1);
    e.offset = static_cast<std::uint32_t>(page.used);
    page.used += consumed;
  }
  arena_ = std::move(fresh);
  dead_bytes_ = 0;
  ++compactions_;
}

void CombineTable::clear() {
  arena_.clear();
  live_bytes_ = 0;
  dead_bytes_ = 0;
  live_entries_ = 0;
  combined_kvs_ = 0;
  auto* entries = reinterpret_cast<Entry*>(slots_.data());
  std::fill_n(entries, slot_count_, Entry{});
}

}  // namespace mimir
