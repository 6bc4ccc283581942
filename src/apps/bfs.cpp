#include "apps/bfs.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "apps/csr.hpp"
#include "apps/vertex_map.hpp"
#include "mutil/hash.hpp"
#include "mutil/random.hpp"

namespace apps::bfs {

namespace {

std::string_view id_view(const std::uint64_t& v) {
  return {reinterpret_cast<const char*>(&v), 8};
}

std::uint64_t visit_digest(std::uint64_t vertex, std::uint64_t level) {
  return mutil::mix64(vertex * 31 + level);
}

/// Min-parent combiner for frontier KVs: any parent is a valid BFS tree
/// edge, so keeping the smaller one is partial-reduce invariant for the
/// level structure.
void combine_min_parent(std::string_view, std::string_view a,
                        std::string_view b, std::string& out) {
  out.assign(mimir::as_u64(a) <= mimir::as_u64(b) ? a : b);
}

/// Which rank owns a vertex — must match the shuffle's routing of the
/// vertex's 8-byte key.
int owner_of(std::uint64_t vertex, int nranks) {
  return static_cast<int>(mutil::hash_bytes(id_view(vertex)) %
                          static_cast<std::uint64_t>(nranks));
}

mimir::KVHint hint_for(bool hint) {
  return hint ? mimir::KVHint::fixed(8, 8) : mimir::KVHint::variable();
}

Result finalize(simmpi::Context& ctx, const VertexMap<std::uint64_t>& visited,
                std::uint64_t levels) {
  std::uint64_t local_checksum = 0;
  std::uint64_t max_level = 0;
  visited.for_each([&](std::uint64_t v, std::uint64_t level) {
    local_checksum += visit_digest(v, level);
    max_level = std::max(max_level, level);
  });
  Result r;
  r.visited = ctx.comm.allreduce_u64(visited.size(), simmpi::Op::kSum);
  r.levels = ctx.comm.allreduce_u64(levels, simmpi::Op::kMax);
  r.checksum = ctx.comm.allreduce_u64(local_checksum, simmpi::Op::kSum);
  return r;
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> kronecker_edge(int scale,
                                                       std::uint64_t seed,
                                                       std::uint64_t index) {
  // R-MAT with A=0.57, B=0.19, C=0.19, D=0.05 (Graph500 parameters).
  mutil::Xoshiro256 rng(mutil::mix64(seed * 0x2545f491 + index));
  std::uint64_t u = 0, v = 0;
  for (int bit = 0; bit < scale; ++bit) {
    const double r = rng.uniform();
    u <<= 1;
    v <<= 1;
    if (r < 0.57) {
      // quadrant A: (0, 0)
    } else if (r < 0.76) {
      v |= 1;  // B: (0, 1)
    } else if (r < 0.95) {
      u |= 1;  // C: (1, 0)
    } else {
      u |= 1;  // D: (1, 1)
      v |= 1;
    }
  }
  return {u, v};
}

Result reference(const RunOptions& opts) {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> adj;
  for (std::uint64_t e = 0; e < opts.num_edges(); ++e) {
    const auto [u, v] = kronecker_edge(opts.scale, opts.seed, e);
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> level;
  std::deque<std::uint64_t> queue;
  const std::uint64_t root = opts.root();
  level[root] = 0;
  queue.push_back(root);
  std::uint64_t max_level = 0;
  while (!queue.empty()) {
    const std::uint64_t v = queue.front();
    queue.pop_front();
    for (const std::uint64_t n : adj[v]) {
      if (level.emplace(n, level[v] + 1).second) {
        max_level = std::max(max_level, level[v] + 1);
        queue.push_back(n);
      }
    }
  }
  Result r;
  r.visited = level.size();
  r.levels = max_level;
  for (const auto& [v, l] : level) r.checksum += visit_digest(v, l);
  return r;
}

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts) {
  mimir::JobConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.comm_buffer = opts.comm_buffer;
  cfg.hint = hint_for(opts.hint);

  // Phase 1: graph partitioning (map-only job; both edge directions).
  // KV compression applies only to the traversal phase (paper §IV-C:
  // "compression reduces the size of data only during the graph
  // traversal phase, while the peak memory usage occurs in the graph
  // partitioning phase, which remains unaffected").
  mimir::Job partition(ctx, cfg);
  partition.map_custom([&](mimir::Emitter& out) {
    const std::uint64_t edges = opts.num_edges();
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    const auto p = static_cast<std::uint64_t>(ctx.size());
    for (std::uint64_t e = edges * r / p; e < edges * (r + 1) / p; ++e) {
      const auto [u, v] = kronecker_edge(opts.scale, opts.seed, e);
      out.emit(id_view(u), id_view(v));
      out.emit(id_view(v), id_view(u));
    }
  });

  Csr csr(ctx.tracker);
  {
    mimir::KVContainer edges = partition.take_intermediate();
    csr.build([&](const auto& fn) { edges.scan(fn); });
    // edges freed here; the CSR keeps the adjacency.
  }

  // Phase 2: traversal. Frontier KVs are (vertex, parent); the
  // min-parent combiner keeps values at 8 bytes.
  cfg.kv_compression = opts.cps;
  VertexMap<std::uint64_t> visited(ctx.tracker);
  mimir::KVContainer frontier(ctx.tracker, cfg.page_size, cfg.hint);
  const std::uint64_t root = opts.root();
  if (owner_of(root, ctx.size()) == ctx.rank()) {
    frontier.append(id_view(root), id_view(root));
  }

  std::uint64_t level = 0;
  std::uint64_t levels_with_visits = 0;
  while (ctx.comm.allreduce_u64(frontier.num_kvs(), simmpi::Op::kSum) != 0) {
    std::uint64_t new_visits = 0;
    mimir::Job step(ctx, cfg);
    step.map_kvs(
        std::move(frontier),
        [&](std::string_view key, std::string_view, mimir::Emitter& out) {
          const std::uint64_t v = mimir::as_u64(key);
          if (!visited.insert_if_absent(v, level)) return;
          ++new_visits;
          for (const std::uint64_t n : csr.neighbors_of(v)) {
            out.emit(id_view(n), id_view(v));
          }
        },
        opts.cps ? mimir::CombineFn(combine_min_parent)
                 : mimir::CombineFn{});
    frontier = step.take_intermediate();
    if (ctx.comm.allreduce_u64(new_visits, simmpi::Op::kSum) != 0) {
      levels_with_visits = level;
    }
    ++level;
  }
  return finalize(ctx, visited, levels_with_visits);
}

Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc) {
  mrmpi::MRConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.out_of_core = ooc;
  mrmpi::MapReduce mr(ctx, cfg);

  // Phase 1: partition.
  mr.map_custom([&](mimir::Emitter& out) {
    const std::uint64_t edges = opts.num_edges();
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    const auto p = static_cast<std::uint64_t>(ctx.size());
    for (std::uint64_t e = edges * r / p; e < edges * (r + 1) / p; ++e) {
      const auto [u, v] = kronecker_edge(opts.scale, opts.seed, e);
      out.emit(id_view(u), id_view(v));
      out.emit(id_view(v), id_view(u));
    }
  });
  mr.aggregate();

  Csr csr(ctx.tracker);
  csr.build([&](const auto& fn) { mr.scan_kv(fn); });

  // Phase 2: traversal; the MR KV store carries the frontier.
  VertexMap<std::uint64_t> visited(ctx.tracker);
  const std::uint64_t root = opts.root();
  mr.map_custom([&](mimir::Emitter& out) {
    if (owner_of(root, ctx.size()) == ctx.rank()) {
      out.emit(id_view(root), id_view(root));
    }
  });

  std::uint64_t level = 0;
  std::uint64_t levels_with_visits = 0;
  for (;;) {
    std::uint64_t new_visits = 0;
    std::uint64_t emitted = 0;
    mr.map_kv([&](std::string_view key, std::string_view,
                  mimir::Emitter& out) {
      const std::uint64_t v = mimir::as_u64(key);
      if (!visited.insert_if_absent(v, level)) return;
      ++new_visits;
      for (const std::uint64_t n : csr.neighbors_of(v)) {
        out.emit(id_view(n), id_view(v));
        ++emitted;
      }
    });
    if (ctx.comm.allreduce_u64(new_visits, simmpi::Op::kSum) != 0) {
      levels_with_visits = level;
    }
    ++level;
    if (ctx.comm.allreduce_u64(emitted, simmpi::Op::kSum) == 0) break;
    // Compression applies to the traversal exchange only.
    if (opts.cps) mr.compress(combine_min_parent);
    mr.aggregate();  // route the next frontier to its owners
  }
  Result r = finalize(ctx, visited, levels_with_visits);
  r.spilled = ctx.comm.allreduce_lor(mr.metrics().spilled);
  return r;
}

}  // namespace apps::bfs
