#include "apps/octree.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_set>

#include "mutil/error.hpp"
#include "mutil/hash.hpp"
#include "mutil/random.hpp"

namespace apps::oc {

namespace {

/// Spread the low 21 bits of x so there are two zero bits between each.
std::uint64_t spread3(std::uint64_t x) {
  x &= 0x1fffff;
  x = (x | x << 32) & 0x1f00000000ffffULL;
  x = (x | x << 16) & 0x1f0000ff0000ffULL;
  x = (x | x << 8) & 0x100f00f00f00f00fULL;
  x = (x | x << 4) & 0x10c30c30c30c30c3ULL;
  x = (x | x << 2) & 0x1249249249249249ULL;
  return x;
}

std::uint64_t quantize(float v, int depth) {
  // Clamp into [0, 1); NaN fails `> 0` and lands in cell 0 with -inf.
  const double c = static_cast<double>(v);
  const double clamped = c > 0.0 ? std::min(c, 0x1.fffffep-1) : 0.0;
  return static_cast<std::uint64_t>(clamped *
                                    static_cast<double>(1u << depth));
}

/// Count-summing combiner (used for pr and cps; fixed 8-byte values).
void combine_counts(std::string_view, std::string_view a,
                    std::string_view b, std::string& out) {
  const std::uint64_t total = mimir::as_u64(a) + mimir::as_u64(b);
  out.assign(mimir::as_view(total));
}

std::uint64_t level_digest(std::uint64_t code, int depth) {
  return mutil::mix64(code * 31 + static_cast<std::uint64_t>(depth));
}

/// `max_depth` comes from outside the program (the example's config):
/// past kMaxDepth distinct octants would share a code.
void check_depth(const RunOptions& opts) {
  if (opts.max_depth < 1 || opts.max_depth > kMaxDepth) {
    throw mutil::ConfigError("octree: max_depth must be in 1.." +
                             std::to_string(kMaxDepth) + ", got " +
                             std::to_string(opts.max_depth));
  }
}

mimir::KVHint hint_for(const RunOptions& opts) {
  // Morton code keys and point counts are both 8 bytes.
  return opts.hint ? mimir::KVHint::fixed(8, 8) : mimir::KVHint::variable();
}

/// Per-level accounting shared by both framework drivers.
struct LevelState {
  std::unordered_set<std::uint64_t> dense;  ///< codes dense at level d-1
  std::uint64_t local_checksum = 0;
  int levels = 0;
  std::uint64_t dense_octants = 0;
  std::uint64_t clustered_points = 0;
};

/// Record this rank's dense octants from (code, count) output KVs and
/// exchange the global dense set (every octant is owned by exactly one
/// rank, so local counts are already global).
template <typename ScanFn>
std::uint64_t collect_dense(simmpi::Context& ctx, int depth,
                            std::uint64_t threshold, const ScanFn& scan,
                            LevelState& state) {
  std::vector<std::uint64_t> local_codes;
  std::uint64_t local_points = 0;
  scan([&](const mimir::KVView& kv) {
    const std::uint64_t count = mimir::as_u64(kv.value);
    if (count < threshold) return;
    const std::uint64_t code = mimir::as_u64(kv.key);
    local_codes.push_back(code);
    local_points += count;
    state.local_checksum += level_digest(code, depth);
  });

  // Share the dense set: gather at rank 0, then broadcast.
  const auto gathered = ctx.comm.gatherv(
      0, std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(local_codes.data()),
             local_codes.size() * 8));
  std::uint64_t total_codes = gathered.data.size() / 8;
  total_codes = ctx.comm.bcast_u64(total_codes, 0);
  std::vector<std::uint64_t> all_codes(total_codes);
  if (ctx.rank() == 0 && total_codes != 0) {
    std::memcpy(all_codes.data(), gathered.data.data(), total_codes * 8);
  }
  ctx.comm.bcast(std::span<std::byte>(
                     reinterpret_cast<std::byte*>(all_codes.data()),
                     all_codes.size() * 8),
                 0);

  state.dense.clear();
  state.dense.insert(all_codes.begin(), all_codes.end());
  if (!state.dense.empty()) {
    state.levels = depth;
    state.dense_octants = state.dense.size();
    state.clustered_points =
        ctx.comm.allreduce_u64(local_points, simmpi::Op::kSum);
  }
  return state.dense.size();
}

}  // namespace

std::uint64_t octant_code(const Point& p, int depth) {
  return (spread3(quantize(p.x, depth)) << 2) |
         (spread3(quantize(p.y, depth)) << 1) |
         spread3(quantize(p.z, depth));
}

std::vector<Point> generate_points(std::uint64_t total, int rank,
                                   int nranks, std::uint64_t seed,
                                   double sigma) {
  const std::uint64_t begin = total * static_cast<std::uint64_t>(rank) /
                              static_cast<std::uint64_t>(nranks);
  const std::uint64_t end =
      total * (static_cast<std::uint64_t>(rank) + 1) /
      static_cast<std::uint64_t>(nranks);
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t i = begin; i < end; ++i) {
    // Seeded per point index so the dataset is identical for any rank
    // count (and for the serial reference).
    mutil::Xoshiro256 rng(mutil::mix64(seed * 0x9e3779b9 + i));
    Point p;
    p.x = static_cast<float>(0.5 + sigma * rng.normal());
    p.y = static_cast<float>(0.5 + sigma * rng.normal());
    p.z = static_cast<float>(0.5 + sigma * rng.normal());
    points.push_back(p);
  }
  return points;
}

Result reference(const RunOptions& opts) {
  check_depth(opts);
  const std::vector<Point> points =
      generate_points(opts.num_points, 0, 1, opts.seed, opts.sigma);
  const std::uint64_t threshold = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(opts.density *
                                    static_cast<double>(opts.num_points)));
  Result result;
  std::unordered_set<std::uint64_t> dense;
  for (int depth = 1; depth <= opts.max_depth; ++depth) {
    std::map<std::uint64_t, std::uint64_t> counts;
    for (const Point& p : points) {
      const std::uint64_t code = octant_code(p, depth);
      if (depth > 1 && dense.find(code >> 3) == dense.end()) {
        continue;  // parent octant was not dense: point dropped
      }
      ++counts[code];
    }
    dense.clear();
    std::uint64_t clustered = 0;
    for (const auto& [code, count] : counts) {
      if (count >= threshold) {
        dense.insert(code);
        clustered += count;
        result.checksum += level_digest(code, depth);
      }
    }
    if (dense.empty()) break;
    result.levels = depth;
    result.dense_octants = dense.size();
    result.clustered_points = clustered;
  }
  return result;
}

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts) {
  check_depth(opts);
  const std::uint64_t threshold = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(opts.density *
                                    static_cast<double>(opts.num_points)));
  mimir::JobConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.comm_buffer = opts.comm_buffer;
  cfg.hint = hint_for(opts);
  cfg.kv_compression = opts.cps;
  cfg.prefetch = opts.prefetch;
  cfg.ooc_live_bytes = opts.ooc_live_bytes;

  // Points are application state; the MapReduce dataflow carries
  // (octant code, count) KVs. Their storage is charged to the tracker
  // like every other rank-local structure.
  const std::vector<Point> points = generate_points(
      opts.num_points, ctx.rank(), ctx.size(), opts.seed, opts.sigma);
  ctx.tracker.allocate(points.size() * sizeof(Point));

  LevelState state;
  for (int depth = 1; depth <= opts.max_depth; ++depth) {
    mimir::Job job(ctx, cfg);
    job.map_custom(
        [&](mimir::Emitter& out) {
          for (const Point& p : points) {
            const std::uint64_t code = octant_code(p, depth);
            if (depth > 1 &&
                state.dense.find(code >> 3) == state.dense.end()) {
              continue;
            }
            out.emit(mimir::as_view(code), std::uint64_t{1});
          }
        },
        opts.cps ? mimir::CombineFn(combine_counts) : mimir::CombineFn{});
    if (opts.pr) {
      job.partial_reduce(combine_counts);
    } else {
      job.reduce([](std::string_view key, mimir::ValueReader& values,
                    mimir::Emitter& out) {
        std::uint64_t total = 0;
        std::string_view v;
        while (values.next(v)) total += mimir::as_u64(v);
        out.emit(key, mimir::as_view(total));
      });
    }
    const std::uint64_t dense = collect_dense(
        ctx, depth, threshold,
        [&](const auto& fn) { job.output().scan(fn); }, state);
    if (dense == 0) break;
  }
  ctx.tracker.release(points.size() * sizeof(Point));

  Result result;
  result.levels = state.levels;
  result.dense_octants = state.dense_octants;
  result.clustered_points = state.clustered_points;
  result.checksum =
      ctx.comm.allreduce_u64(state.local_checksum, simmpi::Op::kSum);
  return result;
}

Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc) {
  check_depth(opts);
  const std::uint64_t threshold = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(opts.density *
                                    static_cast<double>(opts.num_points)));
  mrmpi::MRConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.out_of_core = ooc;
  mrmpi::MapReduce mr(ctx, cfg);

  const std::vector<Point> points = generate_points(
      opts.num_points, ctx.rank(), ctx.size(), opts.seed, opts.sigma);
  ctx.tracker.allocate(points.size() * sizeof(Point));

  LevelState state;
  for (int depth = 1; depth <= opts.max_depth; ++depth) {
    mr.map_custom([&](mimir::Emitter& out) {
      for (const Point& p : points) {
        const std::uint64_t code = octant_code(p, depth);
        if (depth > 1 && state.dense.find(code >> 3) == state.dense.end()) {
          continue;
        }
        out.emit(mimir::as_view(code), mimir::as_view(std::uint64_t{1}));
      }
    });
    if (opts.cps) mr.compress(combine_counts);
    mr.aggregate();
    mr.convert();
    mr.reduce([](std::string_view key, mimir::ValueReader& values,
                 mimir::Emitter& out) {
      std::uint64_t total = 0;
      std::string_view v;
      while (values.next(v)) total += mimir::as_u64(v);
      out.emit(key, mimir::as_view(total));
    });
    const std::uint64_t dense =
        collect_dense(ctx, depth, threshold,
                      [&](const auto& fn) { mr.scan_kv(fn); }, state);
    if (dense == 0) break;
  }
  ctx.tracker.release(points.size() * sizeof(Point));

  Result result;
  result.levels = state.levels;
  result.dense_octants = state.dense_octants;
  result.clustered_points = state.clustered_points;
  result.checksum =
      ctx.comm.allreduce_u64(state.local_checksum, simmpi::Op::kSum);
  result.spilled = ctx.comm.allreduce_lor(mr.metrics().spilled);
  return result;
}

}  // namespace apps::oc
