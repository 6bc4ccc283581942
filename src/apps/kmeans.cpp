#include "apps/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "mutil/hash.hpp"
#include "mutil/random.hpp"

namespace apps::km {

namespace {

/// The 32-byte partial-sum value: component sums plus a member count.
struct Partial {
  double sx = 0, sy = 0, sz = 0;
  std::uint64_t n = 0;
};
static_assert(sizeof(Partial) == 32);

std::string_view partial_view(const Partial& p) {
  return {reinterpret_cast<const char*>(&p), sizeof(p)};
}

Partial as_partial(std::string_view v) {
  Partial p;
  std::memcpy(&p, v.data(), sizeof(p));
  return p;
}

void combine_partials(std::string_view, std::string_view a,
                      std::string_view b, std::string& out) {
  Partial pa = as_partial(a);
  const Partial pb = as_partial(b);
  pa.sx += pb.sx;
  pa.sy += pb.sy;
  pa.sz += pb.sz;
  pa.n += pb.n;
  out.assign(partial_view(pa));
}

double distance2(const Centroid& a, const Centroid& b) {
  const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

/// The generator's true blob centers (also the initial centroids, which
/// keeps the assignment deterministic across rank counts for the
/// well-separated default sigma).
std::vector<Centroid> blob_centers(const RunOptions& opts) {
  std::vector<Centroid> centers;
  mutil::Xoshiro256 rng(opts.seed);
  for (int c = 0; c < opts.clusters; ++c) {
    centers.push_back(
        {0.1 + 0.8 * rng.uniform(), 0.1 + 0.8 * rng.uniform(),
         0.1 + 0.8 * rng.uniform()});
  }
  return centers;
}

int nearest(const std::vector<Centroid>& centroids, const Centroid& p) {
  int best = 0;
  double best_d = distance2(centroids[0], p);
  for (int c = 1; c < static_cast<int>(centroids.size()); ++c) {
    const double d = distance2(centroids[static_cast<std::size_t>(c)], p);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

/// Update centroids from gathered totals; returns the total shift.
double apply_totals(const std::vector<Partial>& totals,
                    std::vector<Centroid>& centroids,
                    std::vector<std::uint64_t>& counts) {
  double shift = 0;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    counts[c] = totals[c].n;
    if (totals[c].n == 0) continue;  // empty cluster keeps its center
    const Centroid updated{totals[c].sx / static_cast<double>(totals[c].n),
                           totals[c].sy / static_cast<double>(totals[c].n),
                           totals[c].sz / static_cast<double>(totals[c].n)};
    shift += std::sqrt(distance2(updated, centroids[c]));
    centroids[c] = updated;
  }
  return shift;
}

}  // namespace

Centroid blob_point(const RunOptions& opts, std::uint64_t index) {
  const auto centers = blob_centers(opts);
  const auto blob = static_cast<std::size_t>(
      index % static_cast<std::uint64_t>(opts.clusters));
  mutil::Xoshiro256 rng(mutil::mix64(opts.seed * 77 + index));
  return {centers[blob].x + opts.blob_sigma * rng.normal(),
          centers[blob].y + opts.blob_sigma * rng.normal(),
          centers[blob].z + opts.blob_sigma * rng.normal()};
}

Result reference(const RunOptions& opts) {
  std::vector<Centroid> points;
  points.reserve(static_cast<std::size_t>(opts.num_points));
  for (std::uint64_t i = 0; i < opts.num_points; ++i) {
    points.push_back(blob_point(opts, i));
  }
  Result result;
  result.centroids = blob_centers(opts);
  result.counts.assign(result.centroids.size(), 0);
  for (int it = 0; it < opts.iterations; ++it) {
    std::vector<Partial> totals(result.centroids.size());
    for (const Centroid& p : points) {
      auto& t = totals[static_cast<std::size_t>(
          nearest(result.centroids, p))];
      t.sx += p.x;
      t.sy += p.y;
      t.sz += p.z;
      ++t.n;
    }
    result.last_shift = apply_totals(totals, result.centroids,
                                     result.counts);
  }
  result.inertia = 0;
  for (const Centroid& p : points) {
    result.inertia += distance2(
        result.centroids[static_cast<std::size_t>(
            nearest(result.centroids, p))],
        p);
  }
  return result;
}

namespace {

/// The distributed iteration shared by both drivers: `run_job` performs
/// one MapReduce over the local points and returns the local per-cluster
/// totals via `scan`; the totals are then gathered and broadcast.
template <typename RunJob>
Result drive(simmpi::Context& ctx, const RunOptions& opts,
             const RunJob& run_job) {
  const auto [begin, end] = std::pair<std::uint64_t, std::uint64_t>{
      opts.num_points * static_cast<std::uint64_t>(ctx.rank()) /
          static_cast<std::uint64_t>(ctx.size()),
      opts.num_points * (static_cast<std::uint64_t>(ctx.rank()) + 1) /
          static_cast<std::uint64_t>(ctx.size())};
  std::vector<Centroid> points;
  points.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t i = begin; i < end; ++i) {
    points.push_back(blob_point(opts, i));
  }
  ctx.tracker.allocate(points.size() * sizeof(Centroid));

  Result result;
  result.centroids = blob_centers(opts);
  result.counts.assign(result.centroids.size(), 0);

  const auto k = result.centroids.size();
  for (int it = 0; it < opts.iterations; ++it) {
    // One MapReduce: local per-rank totals for every cluster id that
    // hashes to this rank.
    std::vector<Partial> local(k);
    run_job(points, result.centroids, local);

    // Gather per-cluster totals everywhere (cluster ids are owned by
    // their key-hash rank; summing the gathered vectors is exact
    // because non-owned slots are zero).
    std::vector<Partial> totals(k);
    const auto gathered = ctx.comm.gatherv(
        0, std::span<const std::byte>(
               reinterpret_cast<const std::byte*>(local.data()),
               local.size() * sizeof(Partial)));
    if (ctx.rank() == 0) {
      for (int r = 0; r < ctx.size(); ++r) {
        const auto* part = reinterpret_cast<const Partial*>(
            gathered.data.data() + static_cast<std::size_t>(r) * k *
                                       sizeof(Partial));
        for (std::size_t c = 0; c < k; ++c) {
          totals[c].sx += part[c].sx;
          totals[c].sy += part[c].sy;
          totals[c].sz += part[c].sz;
          totals[c].n += part[c].n;
        }
      }
    }
    ctx.comm.bcast(std::span<std::byte>(
                       reinterpret_cast<std::byte*>(totals.data()),
                       totals.size() * sizeof(Partial)),
                   0);
    result.last_shift =
        apply_totals(totals, result.centroids, result.counts);
  }

  double inertia = 0;
  for (const Centroid& p : points) {
    inertia += distance2(
        result.centroids[static_cast<std::size_t>(
            nearest(result.centroids, p))],
        p);
  }
  result.inertia = ctx.comm.allreduce_f64(inertia, simmpi::Op::kSum);
  ctx.tracker.release(points.size() * sizeof(Centroid));
  return result;
}

std::string_view id_view(const std::uint64_t& v) {
  return {reinterpret_cast<const char*>(&v), 8};
}

}  // namespace

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts) {
  mimir::JobConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.comm_buffer = opts.comm_buffer;
  if (opts.hint) cfg.hint = mimir::KVHint::fixed(8, sizeof(Partial));
  cfg.kv_compression = opts.cps;

  return drive(ctx, opts, [&](const std::vector<Centroid>& points,
                              const std::vector<Centroid>& centroids,
                              std::vector<Partial>& local) {
    mimir::Job job(ctx, cfg);
    job.map_custom(
        [&](mimir::Emitter& out) {
          for (const Centroid& p : points) {
            const auto c =
                static_cast<std::uint64_t>(nearest(centroids, p));
            const Partial one{p.x, p.y, p.z, 1};
            out.emit(id_view(c), partial_view(one));
          }
        },
        opts.cps ? mimir::CombineFn(combine_partials) : mimir::CombineFn{});
    if (opts.pr) {
      job.partial_reduce(combine_partials);
    } else {
      job.reduce([](std::string_view key, mimir::ValueReader& values,
                    mimir::Emitter& out) {
        Partial total;
        std::string_view v;
        while (values.next(v)) {
          const Partial p = as_partial(v);
          total.sx += p.sx;
          total.sy += p.sy;
          total.sz += p.sz;
          total.n += p.n;
        }
        out.emit(key, partial_view(total));
      });
    }
    job.output().scan([&](const mimir::KVView& kv) {
      local[static_cast<std::size_t>(mimir::as_u64(kv.key))] =
          as_partial(kv.value);
    });
  });
}

Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc) {
  mrmpi::MRConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.out_of_core = ooc;
  mrmpi::MapReduce mr(ctx, cfg);

  return drive(ctx, opts, [&](const std::vector<Centroid>& points,
                              const std::vector<Centroid>& centroids,
                              std::vector<Partial>& local) {
    mr.map_custom([&](mimir::Emitter& out) {
      for (const Centroid& p : points) {
        const auto c = static_cast<std::uint64_t>(nearest(centroids, p));
        const Partial one{p.x, p.y, p.z, 1};
        out.emit(id_view(c), partial_view(one));
      }
    });
    if (opts.cps) mr.compress(combine_partials);
    mr.aggregate();
    mr.convert();
    mr.reduce([](std::string_view key, mimir::ValueReader& values,
                 mimir::Emitter& out) {
      Partial total;
      std::string_view v;
      while (values.next(v)) {
        const Partial p = as_partial(v);
        total.sx += p.sx;
        total.sy += p.sy;
        total.sz += p.sz;
        total.n += p.n;
      }
      out.emit(key, partial_view(total));
    });
    mr.scan_kv([&](const mimir::KVView& kv) {
      local[static_cast<std::size_t>(mimir::as_u64(kv.key))] =
          as_partial(kv.value);
    });
  });
}

}  // namespace apps::km
