#include "apps/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/bfs.hpp"  // kronecker_edge
#include "apps/csr.hpp"
#include "apps/vertex_map.hpp"
#include "mutil/error.hpp"
#include "mutil/hash.hpp"
#include "sched/scheduler.hpp"

namespace apps::pr {

namespace {

std::string_view id_view(const std::uint64_t& v) {
  return {reinterpret_cast<const char*>(&v), 8};
}

int owner_of(std::uint64_t vertex, int nranks) {
  return static_cast<int>(mutil::hash_bytes(id_view(vertex)) %
                          static_cast<std::uint64_t>(nranks));
}

void combine_sum(std::string_view, std::string_view a, std::string_view b,
                 std::string& out) {
  out.assign(mimir::as_view(mimir::as_f64(a) + mimir::as_f64(b)));
}

mimir::KVHint hint_for(bool hint) {
  return hint ? mimir::KVHint::fixed(8, 8) : mimir::KVHint::variable();
}

/// This rank's owned vertices, in increasing id order.
std::vector<std::uint64_t> owned_vertices(std::uint64_t n, int rank,
                                          int nranks) {
  std::vector<std::uint64_t> mine;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (owner_of(v, nranks) == rank) mine.push_back(v);
  }
  return mine;
}

/// Shared per-iteration state update; returns the L1 delta contribution.
double apply_update(const std::vector<std::uint64_t>& owned,
                    const VertexMap<double>& contributions,
                    const Csr& out_edges, double dangling_per_vertex,
                    double base, double damping,
                    VertexMap<double>& ranks, double* dangling_out) {
  double delta = 0;
  double next_dangling = 0;
  for (const std::uint64_t v : owned) {
    const double contrib = contributions.find(v).value_or(0.0);
    const double updated =
        base + damping * (contrib + dangling_per_vertex);
    delta += std::abs(updated - ranks.find(v).value_or(0.0));
    ranks.put(v, updated);
    if (out_edges.degree_of(v) == 0) next_dangling += updated;
  }
  *dangling_out = next_dangling;
  return delta;
}

// --- downstream top-k job ------------------------------------------------
//
// Every contribution KV of the final iteration is re-keyed to a single
// well-known key whose value is a packed, sorted, k-truncated list of
// (contribution, vertex) entries; the partial-reduce combiner merges two
// lists. The merged list ends up on the key's hash-owner rank.

constexpr std::uint64_t kTopKey = 0;

std::string pack_topk(const std::vector<TopKEntry>& entries) {
  std::string out;
  out.reserve(entries.size() * 16);
  for (const TopKEntry& e : entries) {
    out.append(reinterpret_cast<const char*>(&e.contribution), 8);
    out.append(reinterpret_cast<const char*>(&e.vertex), 8);
  }
  return out;
}

std::vector<TopKEntry> unpack_topk(std::string_view v) {
  std::vector<TopKEntry> entries(v.size() / 16);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::memcpy(&entries[i].contribution, v.data() + i * 16, 8);
    std::memcpy(&entries[i].vertex, v.data() + i * 16 + 8, 8);
  }
  return entries;
}

/// Highest contribution first; ties broken by smaller vertex id so the
/// merge is a deterministic function of the entry *set*.
bool topk_before(const TopKEntry& a, const TopKEntry& b) {
  if (a.contribution != b.contribution) {
    return a.contribution > b.contribution;
  }
  return a.vertex < b.vertex;
}

mimir::CombineFn topk_combiner(int k) {
  return [k](std::string_view, std::string_view a, std::string_view b,
             std::string& out) {
    std::vector<TopKEntry> merged = unpack_topk(a);
    const std::vector<TopKEntry> other = unpack_topk(b);
    merged.insert(merged.end(), other.begin(), other.end());
    std::sort(merged.begin(), merged.end(), topk_before);
    if (merged.size() > static_cast<std::size_t>(k)) {
      merged.resize(static_cast<std::size_t>(k));
    }
    out.assign(pack_topk(merged));
  };
}

/// Edge `e` of the run's graph: the external edge list when one is
/// supplied (bench power-law graphs), the Kronecker generator otherwise.
std::pair<std::uint64_t, std::uint64_t> edge_of(const RunOptions& opts,
                                                std::uint64_t e) {
  if (opts.edges != nullptr) return (*opts.edges)[e];
  return bfs::kronecker_edge(opts.scale, opts.seed, e);
}

mimir::JobConfig topk_config(const RunOptions& opts) {
  mimir::JobConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.comm_buffer = opts.comm_buffer;
  cfg.hint = mimir::KVHint{8, mimir::KVHint::kVariable};
  return cfg;
}

void topk_map_kv(std::string_view key, std::string_view value,
                 mimir::Emitter& out) {
  const TopKEntry entry{mimir::as_f64(value), mimir::as_u64(key)};
  out.emit(id_view(kTopKey), pack_topk({entry}));
}

}  // namespace

std::unordered_map<std::uint64_t, double> reference_ranks(
    const RunOptions& opts) {
  const std::uint64_t n = opts.num_vertices();
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> adj;
  for (std::uint64_t e = 0; e < opts.num_edges(); ++e) {
    const auto [u, v] = edge_of(opts, e);
    adj[u].push_back(v);
  }
  std::unordered_map<std::uint64_t, double> ranks;
  for (std::uint64_t v = 0; v < n; ++v) {
    ranks[v] = 1.0 / static_cast<double>(n);
  }
  const double base = (1.0 - opts.damping) / static_cast<double>(n);
  for (int it = 0; it < opts.iterations; ++it) {
    std::unordered_map<std::uint64_t, double> contrib;
    double dangling = 0;
    for (const auto& [v, r] : ranks) {
      const auto neighbors = adj.find(v);
      if (neighbors == adj.end() || neighbors->second.empty()) {
        dangling += r;
        continue;
      }
      const double share =
          r / static_cast<double>(neighbors->second.size());
      for (const std::uint64_t t : neighbors->second) contrib[t] += share;
    }
    const double dangling_per_vertex = dangling / static_cast<double>(n);
    for (auto& [v, r] : ranks) {
      double c = 0;
      const auto it2 = contrib.find(v);
      if (it2 != contrib.end()) c = it2->second;
      r = base + opts.damping * (c + dangling_per_vertex);
    }
  }
  return ranks;
}

Result reference(const RunOptions& opts) {
  const auto ranks = reference_ranks(opts);
  Result result;
  for (const auto& [v, r] : ranks) {
    result.total_rank += r;
    if (r > result.max_rank) {
      result.max_rank = r;
      result.max_vertex = v;
    }
  }
  return result;
}

Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc) {
  const std::uint64_t n = opts.num_vertices();
  mrmpi::MRConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.out_of_core = ooc;
  mrmpi::MapReduce mr(ctx, cfg);

  mr.map_custom([&](mimir::Emitter& out) {
    const std::uint64_t edges = opts.num_edges();
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    const auto p = static_cast<std::uint64_t>(ctx.size());
    for (std::uint64_t e = edges * r / p; e < edges * (r + 1) / p; ++e) {
      const auto [u, v] = edge_of(opts, e);
      out.emit(id_view(u), id_view(v));
    }
  });
  mr.aggregate();
  Csr out_edges(ctx.tracker);
  out_edges.build([&](const auto& fn) { mr.scan_kv(fn); });

  const std::vector<std::uint64_t> owned =
      owned_vertices(n, ctx.rank(), ctx.size());
  ctx.tracker.allocate(owned.size() * 8);
  VertexMap<double> ranks(ctx.tracker);
  double dangling_local = 0;
  for (const std::uint64_t v : owned) {
    ranks.put(v, 1.0 / static_cast<double>(n));
    if (out_edges.degree_of(v) == 0) {
      dangling_local += 1.0 / static_cast<double>(n);
    }
  }
  const double base = (1.0 - opts.damping) / static_cast<double>(n);

  Result result;
  for (int it = 0; it < opts.iterations; ++it) {
    const double dangling =
        ctx.comm.allreduce_f64(dangling_local, simmpi::Op::kSum);
    mr.map_custom([&](mimir::Emitter& out) {
      for (const std::uint64_t v : owned) {
        const auto neighbors = out_edges.neighbors_of(v);
        if (neighbors.empty()) continue;
        const double share = ranks.find(v).value_or(0.0) /
                             static_cast<double>(neighbors.size());
        for (const std::uint64_t t : neighbors) {
          out.emit(id_view(t), mimir::as_view(share));
        }
      }
    });
    if (opts.cps) mr.compress(combine_sum);
    mr.aggregate();
    mr.convert();
    mr.reduce([](std::string_view key, mimir::ValueReader& values,
                 mimir::Emitter& out) {
      double total = 0;
      std::string_view v;
      while (values.next(v)) total += mimir::as_f64(v);
      out.emit(key, mimir::as_view(total));
    });

    VertexMap<double> contributions(ctx.tracker);
    mr.scan_kv([&](const mimir::KVView& kv) {
      contributions.put(mimir::as_u64(kv.key), mimir::as_f64(kv.value));
    });
    const double local_delta = apply_update(
        owned, contributions, out_edges, dangling / static_cast<double>(n),
        base, opts.damping, ranks, &dangling_local);
    result.last_delta =
        ctx.comm.allreduce_f64(local_delta, simmpi::Op::kSum);
  }

  double local_total = 0, local_max = 0;
  std::uint64_t local_argmax = 0;
  ranks.for_each([&](std::uint64_t v, double r) {
    local_total += r;
    if (r > local_max) {
      local_max = r;
      local_argmax = v;
    }
  });
  result.total_rank =
      ctx.comm.allreduce_f64(local_total, simmpi::Op::kSum);
  result.max_rank = ctx.comm.allreduce_f64(local_max, simmpi::Op::kMax);
  result.max_vertex = ctx.comm.allreduce_u64(
      local_max == result.max_rank ? local_argmax : 0, simmpi::Op::kMax);
  result.spilled = ctx.comm.allreduce_lor(mr.metrics().spilled);
  ctx.tracker.release(owned.size() * 8);
  return result;
}

// --- Mimir driver: the job graph -----------------------------------------

namespace {

/// Rank-local session state threaded through the graph's node hooks;
/// rebuilt from node outputs on every attempt, so recovery resumes can
/// reconstruct it by replaying consume hooks on reloaded checkpoints.
/// The partition's consume hook builds the tracked maps, so they are
/// charged after the partition job, not during it.
struct PrState {
  std::optional<Csr> out_edges;
  std::vector<std::uint64_t> owned;
  std::optional<VertexMap<double>> ranks;
  double dangling_local = 0;
  double dangling = 0;  ///< global dangling mass of the next iteration
  double base = 0;
  Result result;
  std::vector<TopKEntry> top;
};

PrState* pr_state(sched::NodeCtx& nctx) {
  return static_cast<PrState*>(nctx.state);
}

/// Reduce the dangling mass the next iteration's update needs. Run at
/// the end of the previous node's consume hook: outside the next
/// iteration's map phase, and replayed when a recovery resume restores
/// the previous node instead of re-running it.
void reduce_dangling(sched::NodeCtx& nctx) {
  PrState* st = pr_state(nctx);
  st->dangling =
      nctx.exec.comm.allreduce_f64(st->dangling_local, simmpi::Op::kSum);
}

}  // namespace

SchedRun make_sched(const RunOptions& opts, int nranks, int top_k) {
  if (top_k > 0 && opts.iterations < 1) {
    throw mutil::UsageError("pagerank: top-k needs at least one iteration");
  }
  const std::uint64_t n = opts.num_vertices();
  mimir::JobConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.comm_buffer = opts.comm_buffer;
  cfg.hint = hint_for(opts.hint);
  cfg.kv_compression = opts.cps;
  cfg.overlap = opts.overlap;
  // Balance applies to the per-iteration contribution shuffles, where
  // high-in-degree vertices concentrate received bytes. The merge pass
  // re-homes planned keys, so the owner_of() placement the consume side
  // relies on is preserved.
  cfg.balance.enabled = opts.balance;
  // The partition job routes each directed edge to its source's owner.
  // Compression is off there (adjacency needs every edge), and so is
  // balance: the edge list is shuffled exactly once, so a merge pass
  // could only add cost.
  mimir::JobConfig partition_cfg = cfg;
  partition_cfg.kv_compression = false;
  partition_cfg.balance.enabled = false;

  SchedRun run;
  run.results = std::make_shared<std::vector<Result>>(nranks);
  run.tops = std::make_shared<std::vector<std::vector<TopKEntry>>>(nranks);

  sched::JobNode partition;
  partition.name = "pr-partition";
  partition.config = partition_cfg;
  partition.producer = [opts](sched::NodeCtx& nctx, mimir::Emitter& out) {
    const std::uint64_t edges = opts.num_edges();
    const auto r = static_cast<std::uint64_t>(nctx.exec.rank());
    const auto p = static_cast<std::uint64_t>(nctx.exec.size());
    for (std::uint64_t e = edges * r / p; e < edges * (r + 1) / p; ++e) {
      const auto [u, v] = edge_of(opts, e);
      out.emit(id_view(u), id_view(v));
    }
  };
  partition.consume = [opts, n](sched::NodeCtx& nctx,
                                mimir::KVContainer& out) {
    PrState* st = pr_state(nctx);
    st->out_edges.emplace(nctx.exec.tracker);
    {
      // No node reads the edges after this hook: free them before the
      // rank map is charged.
      mimir::KVContainer edges = std::move(out);
      st->out_edges->build([&](const auto& fn) { edges.scan(fn); });
    }
    st->owned = owned_vertices(n, nctx.exec.rank(), nctx.exec.size());
    nctx.exec.tracker.allocate(st->owned.size() * 8);
    st->ranks.emplace(nctx.exec.tracker);
    st->dangling_local = 0;
    for (const std::uint64_t v : st->owned) {
      st->ranks->put(v, 1.0 / static_cast<double>(n));
      if (st->out_edges->degree_of(v) == 0) {
        st->dangling_local += 1.0 / static_cast<double>(n);
      }
    }
    st->base = (1.0 - opts.damping) / static_cast<double>(n);
    if (opts.iterations > 0) reduce_dangling(nctx);
  };
  int prev = run.graph.add(std::move(partition));

  for (int it = 0; it < opts.iterations; ++it) {
    sched::JobNode step;
    step.name = "pr-iter" + std::to_string(it);
    step.config = cfg;
    step.producer = [](sched::NodeCtx& nctx, mimir::Emitter& out) {
      PrState* st = pr_state(nctx);
      for (const std::uint64_t v : st->owned) {
        const auto neighbors = st->out_edges->neighbors_of(v);
        if (neighbors.empty()) continue;
        const double share = st->ranks->find(v).value_or(0.0) /
                             static_cast<double>(neighbors.size());
        for (const std::uint64_t t : neighbors) {
          out.emit(id_view(t), mimir::as_view(share));
        }
      }
    };
    // Handed over when balance is on too (unused during the map without
    // cps): the merge pass sums each split rank's share of a hot vertex
    // locally before re-homing it.
    step.combiner = opts.cps || opts.balance
                        ? mimir::CombineFn(combine_sum)
                        : mimir::CombineFn{};
    step.partial = combine_sum;
    const bool last = it + 1 == opts.iterations;
    step.consume = [opts, n, last](sched::NodeCtx& nctx,
                                   mimir::KVContainer& out) {
      PrState* st = pr_state(nctx);
      VertexMap<double> contributions(nctx.exec.tracker);
      out.scan([&](const mimir::KVView& kv) {
        contributions.put(mimir::as_u64(kv.key), mimir::as_f64(kv.value));
      });
      const double local_delta = apply_update(
          st->owned, contributions, *st->out_edges,
          st->dangling / static_cast<double>(n), st->base, opts.damping,
          *st->ranks, &st->dangling_local);
      st->result.last_delta =
          nctx.exec.comm.allreduce_f64(local_delta, simmpi::Op::kSum);
      if (!last) reduce_dangling(nctx);
    };
    const int id = run.graph.add(std::move(step));
    run.graph.add_order(prev, id);
    prev = id;
  }

  if (top_k > 0) {
    sched::JobNode topk;
    topk.name = "pr-topk";
    topk.config = topk_config(opts);
    topk.kv_map = [](sched::NodeCtx&, std::string_view key,
                     std::string_view value, mimir::Emitter& out) {
      topk_map_kv(key, value, out);
    };
    topk.partial = topk_combiner(top_k);
    topk.consume = [](sched::NodeCtx& nctx, mimir::KVContainer& out) {
      PrState* st = pr_state(nctx);
      st->top.clear();
      out.scan([&](const mimir::KVView& kv) {
        const auto entries = unpack_topk(kv.value);
        st->top.insert(st->top.end(), entries.begin(), entries.end());
      });
    };
    run.graph.add_edge(prev, run.graph.add(std::move(topk)));
  }

  run.options.make_state = [](simmpi::Context&) {
    return std::static_pointer_cast<void>(std::make_shared<PrState>());
  };
  auto results = run.results;
  auto tops = run.tops;
  run.options.epilogue = [results, tops](sched::NodeCtx& nctx) {
    PrState* st = pr_state(nctx);
    double local_total = 0, local_max = 0;
    std::uint64_t local_argmax = 0;
    st->ranks->for_each([&](std::uint64_t v, double r) {
      local_total += r;
      if (r > local_max) {
        local_max = r;
        local_argmax = v;
      }
    });
    st->result.total_rank =
        nctx.exec.comm.allreduce_f64(local_total, simmpi::Op::kSum);
    st->result.max_rank =
        nctx.exec.comm.allreduce_f64(local_max, simmpi::Op::kMax);
    st->result.max_vertex = nctx.exec.comm.allreduce_u64(
        local_max == st->result.max_rank ? local_argmax : 0,
        simmpi::Op::kMax);
    nctx.exec.tracker.release(st->owned.size() * 8);
    (*results)[nctx.world_rank] = st->result;
    (*tops)[nctx.world_rank] = st->top;
  };
  return run;
}

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts) {
  SchedRun run = make_sched(opts, ctx.size());
  sched::run_in(ctx, run.graph, run.options);
  return (*run.results)[static_cast<std::size_t>(ctx.rank())];
}

}  // namespace apps::pr
