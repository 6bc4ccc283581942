// K-means clustering — Lloyd's algorithm as iterative MapReduce, the
// canonical machine-learning workload for MapReduce frameworks.
//
// Points live as rank-local application state (like the octree
// benchmark); each iteration is one MapReduce job:
//
//   map:    point -> (nearest centroid id, partial sum {Σx,Σy,Σz,n=1})
//   reduce: component-wise sum per centroid (a fixed 32-byte value, so
//           the partial-reduction and KV-compression combiners apply
//           naturally);
//
// after which the per-centroid totals are gathered and broadcast and
// every rank computes the new centroids. Runs on both frameworks, and
// both drivers share one iteration loop (drive() in kmeans.cpp): the
// state handed from one iteration to the next is the centroid vector,
// not a KV container, so a sched::Graph would add no data edge.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mimir/job.hpp"
#include "mrmpi/mrmpi.hpp"
#include "simmpi/runtime.hpp"

namespace apps::km {

struct RunOptions {
  std::uint64_t num_points = 1 << 13;
  int clusters = 8;       ///< k (also the number of generator blobs)
  int iterations = 10;
  double blob_sigma = 0.04;  ///< well-separated blobs
  std::uint64_t seed = 29;
  std::uint64_t page_size = 64 << 10;
  std::uint64_t comm_buffer = 64 << 10;
  bool hint = true;  ///< fixed 8-byte key / 32-byte partial sum
  bool pr = true;    ///< partial reduction (sum combiner)
  bool cps = false;
};

struct Centroid {
  double x = 0, y = 0, z = 0;
};

struct Result {
  std::vector<Centroid> centroids;       ///< final centers, by cluster id
  std::vector<std::uint64_t> counts;     ///< members per cluster
  double inertia = 0;                    ///< Σ squared distances
  double last_shift = 0;                 ///< centroid movement, last iter
};

/// Deterministic blob point for a global index.
Centroid blob_point(const RunOptions& opts, std::uint64_t index);

/// Serial reference (identical dataset and iteration count).
Result reference(const RunOptions& opts);

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts);
Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc = mrmpi::OocMode::kSpill);

}  // namespace apps::km
