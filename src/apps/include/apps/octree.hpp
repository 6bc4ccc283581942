// Octree clustering (OC) — the paper's iterative multi-stage benchmark.
//
// Points in 3-D space (normal distribution, sigma = 0.5, as in Zhang et
// al.'s ligand-geometry dataset) are clustered by iteratively refining
// an octree: at each level every point maps to its octant's Morton code,
// the reduction counts points per octant, and octants holding at least
// `density` (1 %) of all points stay "dense" and are refined further.
// Points outside dense octants are dropped. The algorithm stops when no
// octant is dense or max_depth is reached.
//
// The key is a fixed 8-byte Morton code (KV-hint applies); the value is
// a packed 12-byte point (or a concatenated blob of points after the
// combiner runs, which is how pr/cps apply to this workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mimir/job.hpp"
#include "mrmpi/mrmpi.hpp"
#include "simmpi/runtime.hpp"

namespace apps::oc {

struct Point {
  float x, y, z;
};

/// Deepest level a Morton code can hold: 21 bits per axis fill 63 of
/// its 64 bits. run_mimir, run_mrmpi and reference reject a deeper
/// max_depth.
inline constexpr int kMaxDepth = 21;

/// Morton (bit-interleaved) octant code of `p` at `depth` levels
/// (1..kMaxDepth); coordinates are clamped into [0, 1). A code's parent
/// is `code >> 3`.
std::uint64_t octant_code(const Point& p, int depth);

/// Deterministically generate this rank's share of `total` points
/// (normal distribution around 0.5 with the given sigma).
std::vector<Point> generate_points(std::uint64_t total, int rank,
                                   int nranks, std::uint64_t seed,
                                   double sigma = 0.5);

struct RunOptions {
  std::uint64_t num_points = 1 << 14;
  std::uint64_t seed = 7;
  double sigma = 0.5;
  double density = 0.01;  ///< dense threshold as a fraction of all points
  int max_depth = 8;
  std::uint64_t page_size = 64 << 10;
  std::uint64_t comm_buffer = 64 << 10;
  bool hint = false;
  bool pr = false;
  bool cps = false;
  bool prefetch = false;  ///< async I/O pipeline (write-behind spill)
  /// Out-of-core bound for the per-level intermediate container
  /// (0 = in-memory only); the octree is the spill-heavy showcase.
  std::uint64_t ooc_live_bytes = 0;
};

struct Result {
  int levels = 0;                     ///< deepest level with a dense octant
  std::uint64_t dense_octants = 0;    ///< dense octants at that level
  std::uint64_t clustered_points = 0; ///< points inside them
  std::uint64_t checksum = 0;         ///< digest over (level, code) pairs
  bool spilled = false;            ///< any rank went out of core (MR-MPI)
};

/// Serial reference implementation (single rank, no frameworks).
Result reference(const RunOptions& opts);

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts);
Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc = mrmpi::OocMode::kSpill);

}  // namespace apps::oc
