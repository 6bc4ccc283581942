// Combiner hash bucket (paper §III-C1 partial-reduction and §III-C2 KV
// compression).
//
// Both optional optimizations share one mechanism: a hash bucket of
// unique keys whose entry is combined with each incoming duplicate via a
// user callback. Partial reduction applies it *after* the shuffle (in
// place of convert+reduce); KV compression applies it *before* the
// shuffle (shrinking communication). The difference is purely where the
// Job wires it in.
//
// Entries live in a paged arena. When combining changes the value size,
// the record is rewritten at the arena tail and the old record becomes
// garbage — the paper's observation that KV compression "uses extra
// buffers" and only pays off above a compression-ratio threshold shows
// up here as dead_bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "memtrack/tracker.hpp"
#include "mimir/containers.hpp"
#include "mimir/kv.hpp"

namespace mimir {

/// User combiner: reduce (key, a, b) into `out` (a reused scratch
/// string). Must be associative and commutative for correct results —
/// Mimir cannot verify this, which is why the paper makes these
/// optimizations opt-in.
using CombineFn = std::function<void(
    std::string_view key, std::string_view a, std::string_view b,
    std::string& out)>;

class CombineTable {
 public:
  CombineTable(memtrack::Tracker& tracker, std::uint64_t page_size,
               KVHint hint, CombineFn combiner);

  CombineTable(CombineTable&&) noexcept = default;
  CombineTable(const CombineTable&) = delete;
  CombineTable& operator=(const CombineTable&) = delete;

  /// Insert a KV, combining with an existing entry for the same key.
  void upsert(std::string_view key, std::string_view value);

  /// Visit every live (combined) KV.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const Entry* entries =
        reinterpret_cast<const Entry*>(slots_.data());
    for (std::uint64_t i = 0; i < slot_count_; ++i) {
      if (entries[i].occupied()) {
        std::size_t consumed = 0;
        fn(codec_.decode(record_ptr(entries[i]), &consumed));
      }
    }
  }

  /// Drop all entries and arena pages.
  void clear();

  std::uint64_t size() const noexcept { return live_entries_; }
  bool empty() const noexcept { return live_entries_ == 0; }
  /// Encoded bytes of live entries.
  std::uint64_t live_bytes() const noexcept { return live_bytes_; }
  /// Garbage left behind by size-changing combines. Bounded: once dead
  /// bytes exceed live bytes (and at least one page), the arena is
  /// compacted, so the bucket's footprint stays proportional to its
  /// live contents no matter how many values change size.
  std::uint64_t dead_bytes() const noexcept { return dead_bytes_; }
  /// KVs that were merged away (inputs - live entries).
  std::uint64_t combined_kvs() const noexcept { return combined_kvs_; }
  /// Arena compactions performed so far.
  std::uint64_t compactions() const noexcept { return compactions_; }
  /// Bytes currently held by arena pages (live + dead + page slack).
  std::uint64_t arena_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& page : arena_) total += page.buffer.size();
    return total;
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t page = kEmpty;
    std::uint32_t offset = 0;

    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    bool occupied() const noexcept { return page != kEmpty; }
  };

  const std::byte* record_ptr(const Entry& e) const noexcept {
    return arena_[e.page].buffer.data() + e.offset;
  }

  /// The slot holding `key`, or the empty slot where it belongs. A
  /// matched record is returned decoded in `*record` and its encoded
  /// size in `*record_bytes`, so upsert does not decode it again.
  Entry* find_slot(std::uint64_t hash, std::string_view key, KVView* record,
                   std::size_t* record_bytes);
  void grow();
  void compact();
  Entry append_record(std::uint64_t hash, std::string_view key,
                      std::string_view value);

  memtrack::Tracker* tracker_;
  std::uint64_t page_size_;
  KVCodec codec_;
  CombineFn combiner_;

  memtrack::TrackedBuffer slots_;
  std::uint64_t slot_count_ = 0;
  std::uint64_t live_entries_ = 0;

  std::deque<detail::Page> arena_;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t dead_bytes_ = 0;
  std::uint64_t combined_kvs_ = 0;
  std::uint64_t compactions_ = 0;
  std::string scratch_;
};

}  // namespace mimir
