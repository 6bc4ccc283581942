#include "mimir/containers.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "mutil/error.hpp"

namespace mimir {

// --- KVContainer ---------------------------------------------------------

KVContainer::KVContainer(memtrack::Tracker& tracker, std::uint64_t page_size,
                         KVHint hint)
    : tracker_(&tracker), page_size_(page_size), codec_(hint) {
  if (page_size == 0) {
    throw mutil::ConfigError("KVContainer: page size must be positive");
  }
}

KVContainer::~KVContainer() { drop_spill_file(); }

KVContainer::KVContainer(KVContainer&& other) noexcept
    : tracker_(other.tracker_),
      page_size_(other.page_size_),
      codec_(other.codec_),
      pages_(std::move(other.pages_)),
      num_kvs_(std::exchange(other.num_kvs_, 0)),
      data_bytes_(std::exchange(other.data_bytes_, 0)),
      spill_(std::exchange(other.spill_, SpillConfig{})),
      spill_writer_(std::exchange(other.spill_writer_, pfs::AsyncWriter{})),
      spilled_bytes_(std::exchange(other.spilled_bytes_, 0)),
      segments_(std::exchange(other.segments_, 0)) {}

KVContainer& KVContainer::operator=(KVContainer&& other) noexcept {
  if (this != &other) {
    drop_spill_file();
    tracker_ = other.tracker_;
    page_size_ = other.page_size_;
    codec_ = other.codec_;
    pages_ = std::move(other.pages_);
    num_kvs_ = std::exchange(other.num_kvs_, 0);
    data_bytes_ = std::exchange(other.data_bytes_, 0);
    spill_ = std::exchange(other.spill_, SpillConfig{});
    spill_writer_ = std::exchange(other.spill_writer_, pfs::AsyncWriter{});
    spilled_bytes_ = std::exchange(other.spilled_bytes_, 0);
    segments_ = std::exchange(other.segments_, 0);
  }
  return *this;
}

void KVContainer::enable_spill(SpillConfig spill) {
  if (num_kvs_ != 0) {
    throw mutil::UsageError(
        "KVContainer: enable_spill on a non-empty container");
  }
  if (spill.enabled() && spill.file.empty()) {
    throw mutil::ConfigError("KVContainer: spill needs a file name");
  }
  spill_ = std::move(spill);
  spill_writer_ = pfs::AsyncWriter(spill_.enabled() && spill_.write_behind);
}

std::byte* KVContainer::grab(std::size_t bytes) {
  if (pages_.empty() || pages_.back().room() < bytes) {
    maybe_spill();
    // Generic container pages: attributed to the enclosing component
    // when one is active (e.g. checkpoint restore), else to "pages".
    const memtrack::TagScope tag("pages",
                                 memtrack::TagScope::Mode::kFallback);
    detail::Page page;
    page.buffer = memtrack::TrackedBuffer(
        *tracker_, std::max<std::size_t>(bytes, page_size_));
    pages_.push_back(std::move(page));
  }
  detail::Page& page = pages_.back();
  std::byte* out = page.buffer.data() + page.used;
  page.used += bytes;
  return out;
}

void KVContainer::maybe_spill() {
  if (!spill_.enabled()) return;
  // Keep the freshest pages in memory; push the oldest ones out as
  // length-prefixed, record-aligned segments.
  while (pages_.size() > 1 &&
         allocated_bytes() + page_size_ > spill_.max_live_bytes) {
    detail::Page& front = pages_.front();
    pfs::Writer writer = segments_ == 0 ? spill_.fs->create(spill_.file)
                                        : spill_.fs->append(spill_.file);
    const std::uint64_t len = front.used;
    // Routed through the write-behind queue: with spill_.write_behind
    // these mutate the file now but charge the clock at the drain
    // (stream_spilled / drop); disabled, they write synchronously.
    spill_writer_.write(
        writer,
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(&len),
                                   sizeof(len)),
        *spill_.clock);
    spill_writer_.write(writer, front.contents(), *spill_.clock);
    spilled_bytes_ += len;
    ++segments_;
    pages_.pop_front();
  }
}

void KVContainer::stream_spilled(
    const std::function<void(std::span<const std::byte>)>& fn) const {
  if (segments_ == 0) return;
  // Drain pending write-behind charges before reading the segments
  // back — the read must queue behind its own data's writes.
  spill_writer_.flush(*spill_.clock);
  pfs::Reader reader = spill_.fs->open(spill_.file);
  std::vector<std::byte> segment;
  for (std::uint64_t s = 0; s < segments_; ++s) {
    std::uint64_t len = 0;
    std::byte header[sizeof(len)];
    if (reader.read(header, *spill_.clock) != sizeof(len)) {
      throw mutil::IoError("KVContainer: truncated spill file '" +
                           spill_.file + "'");
    }
    std::memcpy(&len, header, sizeof(len));
    segment.resize(len);
    if (reader.read(segment, *spill_.clock) != len) {
      throw mutil::IoError("KVContainer: truncated spill file '" +
                           spill_.file + "'");
    }
    fn(segment);
  }
}

void KVContainer::drop_spill_file() {
  // The data is deleted unread; abandon any queued charges (recorded
  // as hidden so the io accounting still closes).
  spill_writer_.discard();
  if (segments_ != 0 && spill_.fs != nullptr &&
      spill_.fs->exists(spill_.file)) {
    spill_.fs->remove(spill_.file);
  }
  segments_ = 0;
  spilled_bytes_ = 0;
}

void KVContainer::append(std::string_view key, std::string_view value) {
  const std::size_t bytes = codec_.encoded_size(key, value);
  codec_.encode(grab(bytes), key, value);
  ++num_kvs_;
  data_bytes_ += bytes;
}

void KVContainer::append_encoded(std::span<const std::byte> bytes) {
  // The region already holds this container's encoding, so records are
  // copied, never decoded and re-encoded. The first record of each run
  // goes through grab(), which makes the page, spill and memtrack
  // decisions that per-record append() would; the records behind it
  // that still fit that page join the run and land with one memcpy.
  const std::byte* src = bytes.data();
  const std::byte* const end = src + bytes.size();
  const auto record_size = [this, end](const std::byte* p) {
    std::size_t size = 0;
    (void)codec_.decode(p, &size);
    if (size > static_cast<std::size_t>(end - p)) {
      throw mutil::UsageError(
          "KVContainer: encoded region ends inside a record");
    }
    return size;
  };
  while (src < end) {
    std::size_t run = record_size(src);
    std::byte* dst = grab(run);
    detail::Page& page = pages_.back();
    std::uint64_t kvs = 1;
    while (src + run < end) {
      const std::size_t next = record_size(src + run);
      if (next > page.room()) break;
      page.used += next;
      run += next;
      ++kvs;
    }
    std::memcpy(dst, src, run);
    src += run;
    num_kvs_ += kvs;
    data_bytes_ += run;
  }
}

void KVContainer::clear() {
  drop_spill_file();
  pages_.clear();
  num_kvs_ = 0;
  data_bytes_ = 0;
}

std::uint64_t KVContainer::allocated_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& page : pages_) total += page.capacity();
  return total;
}

// --- ValueReader -----------------------------------------------------------

bool ValueReader::next(std::string_view& value) {
  if (remaining_ == 0) return false;
  const char* chars = reinterpret_cast<const char*>(cursor_);
  if (value_hint_ == KVHint::kVariable) {
    std::uint32_t len = 0;
    std::memcpy(&len, cursor_, 4);
    value = std::string_view(chars + 4, len);
    cursor_ += 4 + len;
  } else if (value_hint_ == KVHint::kString) {
    value = std::string_view(chars);
    cursor_ += value.size() + 1;
  } else {
    value = std::string_view(chars, static_cast<std::size_t>(value_hint_));
    cursor_ += value_hint_;
  }
  --remaining_;
  return true;
}

// --- KMVContainer ----------------------------------------------------------

KMVContainer::KMVContainer(memtrack::Tracker& tracker,
                           std::uint64_t page_size, KVHint hint)
    : tracker_(&tracker), page_size_(page_size), hint_(hint) {
  if (page_size == 0) {
    throw mutil::ConfigError("KMVContainer: page size must be positive");
  }
}

std::size_t KMVContainer::record_size(std::string_view key,
                                      std::uint32_t value_count,
                                      std::uint64_t values_total) const {
  std::size_t size = 8;  // value_count + values_section
  if (hint_.key_is_variable()) size += 4;
  size += key.size();
  if (hint_.key_len == KVHint::kString) size += 1;
  size += values_total;
  if (hint_.value_is_variable()) {
    size += 4ull * value_count;
  } else if (hint_.value_len == KVHint::kString) {
    size += value_count;  // one NUL per value
  }
  return size;
}

KMVContainer::Slot KMVContainer::reserve(std::string_view key,
                                         std::uint32_t value_count,
                                         std::uint64_t values_total) {
  if (!hint_.key_is_variable() && hint_.key_len != KVHint::kString &&
      key.size() != static_cast<std::size_t>(hint_.key_len)) {
    throw mutil::UsageError("KMVContainer: key violates fixed-length hint");
  }
  const std::size_t bytes = record_size(key, value_count, values_total);
  std::uint32_t values_section = static_cast<std::uint32_t>(values_total);
  if (hint_.value_is_variable()) {
    values_section += 4u * value_count;
  } else if (hint_.value_len == KVHint::kString) {
    values_section += value_count;
  }

  if (pages_.empty() || pages_.back().room() < bytes) {
    const memtrack::TagScope tag("pages",
                                 memtrack::TagScope::Mode::kFallback);
    detail::Page page;
    page.buffer = memtrack::TrackedBuffer(
        *tracker_, std::max<std::size_t>(bytes, page_size_));
    pages_.push_back(std::move(page));
  }
  detail::Page& page = pages_.back();
  Slot slot;
  slot.page = static_cast<std::uint32_t>(pages_.size() - 1);
  slot.record_offset = static_cast<std::uint32_t>(page.used);

  std::byte* p = page.buffer.data() + page.used;
  std::byte* cursor = p;
  if (hint_.key_is_variable()) {
    const auto len = static_cast<std::uint32_t>(key.size());
    std::memcpy(cursor, &len, 4);
    cursor += 4;
  }
  std::memcpy(cursor, &value_count, 4);
  cursor += 4;
  std::memcpy(cursor, &values_section, 4);
  cursor += 4;
  std::memcpy(cursor, key.data(), key.size());
  cursor += key.size();
  if (hint_.key_len == KVHint::kString) {
    *cursor = std::byte{0};
    ++cursor;
  }
  slot.value_cursor = static_cast<std::uint32_t>(cursor - page.buffer.data());

  page.used += bytes;
  ++num_kmvs_;
  data_bytes_ += bytes;
  return slot;
}

void KMVContainer::add_value(Slot& slot, std::string_view value) {
  if (!hint_.value_is_variable() && hint_.value_len != KVHint::kString &&
      value.size() != static_cast<std::size_t>(hint_.value_len)) {
    throw mutil::UsageError(
        "KMVContainer: value violates fixed-length hint");
  }
  std::byte* base = page_data(slot.page);
  std::byte* cursor = base + slot.value_cursor;
  if (hint_.value_is_variable()) {
    const auto len = static_cast<std::uint32_t>(value.size());
    std::memcpy(cursor, &len, 4);
    cursor += 4;
  }
  std::memcpy(cursor, value.data(), value.size());
  cursor += value.size();
  if (hint_.value_len == KVHint::kString) {
    *cursor = std::byte{0};
    ++cursor;
  }
  slot.value_cursor = static_cast<std::uint32_t>(cursor - base);
}

std::string_view KMVContainer::key_of(const Slot& slot) const {
  const std::byte* p = page_data(slot.page) + slot.record_offset;
  std::uint32_t key_len = 0;
  if (hint_.key_is_variable()) {
    std::memcpy(&key_len, p, 4);
    p += 4;
  }
  p += 8;  // value_count + values_section
  const char* chars = reinterpret_cast<const char*>(p);
  if (hint_.key_len == KVHint::kString) return std::string_view(chars);
  if (hint_.key_is_variable()) return {chars, key_len};
  return {chars, static_cast<std::size_t>(hint_.key_len)};
}

std::byte* KMVContainer::page_data(std::uint32_t page) noexcept {
  return pages_[page].buffer.data();
}
const std::byte* KMVContainer::page_data(std::uint32_t page) const noexcept {
  return pages_[page].buffer.data();
}

void KMVContainer::clear() {
  pages_.clear();
  num_kmvs_ = 0;
  data_bytes_ = 0;
}

std::uint64_t KMVContainer::allocated_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& page : pages_) total += page.capacity();
  return total;
}

}  // namespace mimir
