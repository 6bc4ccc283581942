// Paged KV and KMV containers (the paper's KVC / KMVC objects, §III).
//
// Unlike MR-MPI's statically pre-allocated pages, these containers grow
// one fixed-size page at a time as data is inserted and — crucially —
// free pages as data is consumed, so peak memory tracks live data rather
// than a per-phase worst case. Every page is charged to the rank's
// memory Tracker, which is how the benchmark's peak-usage curves see
// them. A record never straddles a page boundary; a record larger than
// the configured page size gets a dedicated oversized page.
#pragma once

#include <cstdint>
#include <functional>
#include <deque>
#include <span>
#include <string>
#include <string_view>

#include "memtrack/tracker.hpp"
#include "mimir/kv.hpp"
#include "pfs/async.hpp"
#include "pfs/filesystem.hpp"

namespace mimir {

namespace detail {

/// One data page: a tracked buffer plus a fill cursor.
struct Page {
  memtrack::TrackedBuffer buffer;
  std::size_t used = 0;

  std::size_t capacity() const noexcept { return buffer.size(); }
  std::size_t room() const noexcept { return buffer.size() - used; }
  std::span<const std::byte> contents() const noexcept {
    return buffer.span().subspan(0, used);
  }
};

}  // namespace detail

/// Out-of-core backend for a KVContainer (extension; the original Mimir
/// gained this ability in follow-up work). When the container's live
/// pages exceed `max_live_bytes`, the oldest full pages are written as
/// record-aligned segments to the parallel file system and freed;
/// scans/consumes stream them back at PFS cost. 0 = never spill.
struct SpillConfig {
  pfs::FileSystem* fs = nullptr;
  simtime::Clock* clock = nullptr;
  std::string file;
  std::uint64_t max_live_bytes = 0;
  /// Write-behind spill (mimir.prefetch): segment writes mutate the
  /// file at enqueue but their clock charges drain when the container
  /// is next streamed (or as hidden cost if the file is dropped
  /// unread). File bytes are bit-identical either way.
  bool write_behind = false;

  bool enabled() const noexcept {
    return fs != nullptr && max_live_bytes != 0;
  }
};

/// Container of encoded KVs in insertion order.
class KVContainer {
 public:
  KVContainer(memtrack::Tracker& tracker, std::uint64_t page_size,
              KVHint hint = {});
  ~KVContainer();

  KVContainer(KVContainer&& other) noexcept;
  KVContainer& operator=(KVContainer&& other) noexcept;
  KVContainer(const KVContainer&) = delete;
  KVContainer& operator=(const KVContainer&) = delete;

  const KVCodec& codec() const noexcept { return codec_; }
  std::uint64_t page_size() const noexcept { return page_size_; }

  /// Turn on out-of-core spilling (must be set before data arrives).
  void enable_spill(SpillConfig spill);
  bool spilled() const noexcept { return spilled_bytes_ != 0; }
  std::uint64_t spilled_bytes() const noexcept { return spilled_bytes_; }

  /// Append one KV (encodes into the last page, growing as needed).
  void append(std::string_view key, std::string_view value);
  void append(const KVView& kv) { append(kv.key, kv.value); }

  /// Append every KV of an encoded byte region (e.g. a receive buffer).
  /// Records are re-packed so none straddles a page boundary. Throws
  /// UsageError when the region ends inside a record.
  void append_encoded(std::span<const std::byte> bytes);

  /// Visit every KV without consuming. Spilled segments are re-read
  /// from the PFS (at full cost) on every scan; views passed to `fn`
  /// are valid only for the duration of the callback when the
  /// container has spilled.
  template <typename Fn>
  void scan(Fn&& fn) const {
    stream_spilled(
        [&](std::span<const std::byte> segment) {
          codec_.for_each(segment, fn);
        });
    for (const auto& page : pages_) {
      codec_.for_each(page.contents(), fn);
    }
  }

  /// Visit every KV, freeing each page right after it is processed;
  /// the container is empty afterwards. This is the "memory returns as
  /// data is consumed" behaviour the paper's KVC provides. Spilled
  /// segments are streamed first and their file is deleted.
  template <typename Fn>
  void consume(Fn&& fn) {
    stream_spilled(
        [&](std::span<const std::byte> segment) {
          codec_.for_each(segment, fn);
        });
    drop_spill_file();
    while (!pages_.empty()) {
      codec_.for_each(pages_.front().contents(), fn);
      pages_.pop_front();  // releases the tracked buffer
    }
    num_kvs_ = 0;
    data_bytes_ = 0;
    spilled_bytes_ = 0;
    segments_ = 0;
  }

  void clear();

  std::uint64_t num_kvs() const noexcept { return num_kvs_; }
  /// Encoded payload bytes currently held.
  std::uint64_t data_bytes() const noexcept { return data_bytes_; }
  /// Bytes of page memory currently allocated (>= data_bytes).
  std::uint64_t allocated_bytes() const noexcept;
  std::size_t num_pages() const noexcept { return pages_.size(); }
  bool empty() const noexcept { return num_kvs_ == 0; }

 private:
  std::byte* grab(std::size_t bytes);
  /// Push the oldest full pages out to the spill file until the live
  /// footprint fits the configured bound.
  void maybe_spill();
  /// Stream every spilled segment (record-aligned) through `fn`.
  void stream_spilled(
      const std::function<void(std::span<const std::byte>)>& fn) const;
  void drop_spill_file();

  memtrack::Tracker* tracker_;
  std::uint64_t page_size_;
  KVCodec codec_;
  std::deque<detail::Page> pages_;
  std::uint64_t num_kvs_ = 0;
  std::uint64_t data_bytes_ = 0;

  SpillConfig spill_;
  /// Write-behind queue for spill segments. Mutable because the const
  /// scan path must drain it before streaming segments back — it holds
  /// timing/accounting state only, never data (the file mutates at
  /// enqueue), so const-ness of the data is preserved.
  mutable pfs::AsyncWriter spill_writer_;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t segments_ = 0;
};

/// Sequential reader over one KMV record's value list.
class ValueReader {
 public:
  ValueReader(const std::byte* values, std::uint32_t count,
              std::int32_t value_hint)
      : cursor_(values), remaining_(count), count_(count),
        begin_(values), value_hint_(value_hint) {}

  std::uint32_t count() const noexcept { return count_; }

  /// Fetch the next value; returns false when exhausted.
  bool next(std::string_view& value);

  /// Restart iteration from the first value.
  void rewind() noexcept {
    cursor_ = begin_;
    remaining_ = count_;
  }

 private:
  const std::byte* cursor_;
  std::uint32_t remaining_;
  std::uint32_t count_;
  const std::byte* begin_;
  std::int32_t value_hint_;
};

/// Container of KMV records (key + list of values), built by the
/// two-pass convert phase: pass 1 reserves fully-sized records, pass 2
/// fills values in place.
class KMVContainer {
 public:
  KMVContainer(memtrack::Tracker& tracker, std::uint64_t page_size,
               KVHint hint = {});

  KMVContainer(KMVContainer&&) noexcept = default;
  KMVContainer& operator=(KMVContainer&&) noexcept = default;
  KMVContainer(const KMVContainer&) = delete;
  KMVContainer& operator=(const KMVContainer&) = delete;

  /// Opaque handle to a reserved record, used to append values.
  struct Slot {
    std::uint32_t page = 0;
    std::uint32_t record_offset = 0;
    std::uint32_t value_cursor = 0;  ///< offset of next value write
  };

  /// Reserve a record for `key` with `value_count` values whose raw
  /// lengths sum to `values_total`. Writes header + key immediately.
  Slot reserve(std::string_view key, std::uint32_t value_count,
               std::uint64_t values_total);

  /// Append the next value into a reserved record.
  void add_value(Slot& slot, std::string_view value);

  /// Read the key stored in a reserved record (stable storage).
  std::string_view key_of(const Slot& slot) const;

  /// Visit every record: fn(std::string_view key, ValueReader&).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& page : pages_) {
      walk_page(page, fn);
    }
  }

  /// Like for_each but frees each page after processing (paper: reduce
  /// consumes the KMVC progressively).
  template <typename Fn>
  void consume(Fn&& fn) {
    while (!pages_.empty()) {
      walk_page(pages_.front(), fn);
      pages_.pop_front();
    }
    num_kmvs_ = 0;
    data_bytes_ = 0;
  }

  void clear();

  std::uint64_t num_kmvs() const noexcept { return num_kmvs_; }
  std::uint64_t data_bytes() const noexcept { return data_bytes_; }
  std::uint64_t allocated_bytes() const noexcept;
  bool empty() const noexcept { return num_kmvs_ == 0; }

 private:
  template <typename Fn>
  void walk_page(const detail::Page& page, Fn&& fn) const {
    std::size_t offset = 0;
    const std::span<const std::byte> bytes = page.contents();
    while (offset < bytes.size()) {
      std::size_t consumed = 0;
      decode_record(bytes.data() + offset, &consumed, fn);
      offset += consumed;
    }
  }

  template <typename Fn>
  void decode_record(const std::byte* p, std::size_t* consumed,
                     Fn&& fn) const;

  /// Size of the encoded record.
  std::size_t record_size(std::string_view key, std::uint32_t value_count,
                          std::uint64_t values_total) const;

  std::byte* page_data(std::uint32_t page) noexcept;
  const std::byte* page_data(std::uint32_t page) const noexcept;

  memtrack::Tracker* tracker_;
  std::uint64_t page_size_;
  KVHint hint_;
  std::deque<detail::Page> pages_;
  std::uint64_t num_kmvs_ = 0;
  std::uint64_t data_bytes_ = 0;
};

// --- KMVContainer inline template bodies --------------------------------

template <typename Fn>
void KMVContainer::decode_record(const std::byte* p, std::size_t* consumed,
                                 Fn&& fn) const {
  const std::byte* cursor = p;
  std::uint32_t key_len = 0;
  if (hint_.key_is_variable()) {
    std::memcpy(&key_len, cursor, 4);
    cursor += 4;
  }
  std::uint32_t value_count = 0;
  std::memcpy(&value_count, cursor, 4);
  cursor += 4;
  std::uint32_t values_section = 0;
  std::memcpy(&values_section, cursor, 4);
  cursor += 4;

  std::string_view key;
  if (hint_.key_len == KVHint::kString) {
    const char* chars = reinterpret_cast<const char*>(cursor);
    key = std::string_view(chars);
    cursor += key.size() + 1;
  } else if (hint_.key_is_variable()) {
    key = std::string_view(reinterpret_cast<const char*>(cursor), key_len);
    cursor += key_len;
  } else {
    key = std::string_view(reinterpret_cast<const char*>(cursor),
                           static_cast<std::size_t>(hint_.key_len));
    cursor += hint_.key_len;
  }

  ValueReader reader(cursor, value_count, hint_.value_len);
  fn(key, reader);
  cursor += values_section;
  *consumed = static_cast<std::size_t>(cursor - p);
}

}  // namespace mimir
