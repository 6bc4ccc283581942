// Tracked CSR adjacency shared by the graph applications (BFS,
// PageRank). Built in two passes from shuffled (vertex, neighbour) KVs —
// each scan may stream from a framework store, so spilled data is
// re-read at PFS cost like any other pass. Values may be blobs of
// several 8-byte ids after a concatenating combiner ran.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "apps/vertex_map.hpp"
#include "memtrack/tracker.hpp"
#include "mimir/kv.hpp"

namespace apps {

class Csr {
 public:
  struct Range {
    std::uint32_t offset;
    std::uint32_t degree;
  };

  explicit Csr(memtrack::Tracker& tracker)
      : tracker_(&tracker), index_(tracker) {}

  /// Two-pass build over any KV scan function: fn(visitor) must invoke
  /// visitor(const mimir::KVView&) for every (vertex, neighbour[s]) KV.
  template <typename ScanFn>
  void build(const ScanFn& scan) {
    std::uint64_t total = 0;
    scan([&](const mimir::KVView& kv) {
      const std::uint64_t v = mimir::as_u64(kv.key);
      const auto ids = static_cast<std::uint32_t>(kv.value.size() / 8);
      const auto entry = index_.find(v);
      const std::uint32_t degree = entry ? entry->degree + ids : ids;
      index_.put(v, {0, degree});
      total += ids;
    });
    neighbors_ = memtrack::TrackedBuffer(*tracker_, total * 8);
    // Assign offsets in a stable order.
    std::uint32_t offset = 0;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    order.reserve(static_cast<std::size_t>(index_.size()));
    index_.for_each([&](std::uint64_t v, const Range& e) {
      order.emplace_back(v, e.degree);
    });
    for (const auto& [v, degree] : order) {
      index_.put(v, {offset, degree});
      offset += degree;
    }
    // Fill.
    VertexMap<std::uint32_t> cursor(*tracker_);
    scan([&](const mimir::KVView& kv) {
      const std::uint64_t v = mimir::as_u64(kv.key);
      const auto entry = *index_.find(v);
      std::uint32_t at = cursor.find(v).value_or(0);
      for (std::size_t off = 0; off + 8 <= kv.value.size(); off += 8) {
        std::uint64_t n = 0;
        std::memcpy(&n, kv.value.data() + off, 8);
        std::memcpy(neighbors_.data() + (entry.offset + at) * 8ull, &n, 8);
        ++at;
      }
      cursor.put(v, at);
    });
  }

  std::span<const std::uint64_t> neighbors_of(std::uint64_t v) const {
    const auto entry = index_.find(v);
    if (!entry) return {};
    return {reinterpret_cast<const std::uint64_t*>(neighbors_.data()) +
                entry->offset,
            entry->degree};
  }

  std::uint32_t degree_of(std::uint64_t v) const {
    const auto entry = index_.find(v);
    return entry ? entry->degree : 0;
  }

  /// Number of vertices with at least one neighbour.
  std::uint64_t vertices() const { return index_.size(); }

 private:
  memtrack::Tracker* tracker_;
  VertexMap<Range> index_;
  memtrack::TrackedBuffer neighbors_;
};

}  // namespace apps
