// Breadth-first search (BFS) — the paper's iterative map-only benchmark,
// one of the Graph500 kernels.
//
// The graph is generated with the Graph500-style Kronecker (R-MAT)
// sampler (A=.57, B=.19, C=.19, D=.05), scale-free with a configurable
// edge factor (paper: average degree 32). The workload has two phases,
// exactly as the paper describes:
//
//   1. graph partitioning — every rank generates its slice of the edge
//      list and a map-only job shuffles both directions of each edge to
//      the hash owner of its endpoint; the receiving rank builds a
//      tracked CSR adjacency. This is where peak memory occurs.
//   2. traversal — iterative map-only jobs: the frontier KVs
//      (vertex, parent) arrive at each vertex's owner, unvisited
//      vertices are claimed, and their neighbours are emitted as the
//      next frontier. KV compression (a min-parent combiner) shrinks
//      traversal traffic but cannot reduce the partitioning-phase peak.
//
// Keys and values are 64-bit vertex ids, so the KV-hint (fixed 8/8)
// applies naturally.
//
// The Mimir driver is one job loop, run_mimir: the BFS depth is data
// dependent, so each level's job exists only if the previous level's
// frontier is non-empty — a static sched::Graph would have to declare
// a maximum depth of levels that skip themselves.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mimir/job.hpp"
#include "mrmpi/mrmpi.hpp"
#include "simmpi/runtime.hpp"

namespace apps::bfs {

/// Kronecker/R-MAT edge for a global edge index (deterministic).
std::pair<std::uint64_t, std::uint64_t> kronecker_edge(int scale,
                                                       std::uint64_t seed,
                                                       std::uint64_t index);

struct RunOptions {
  int scale = 10;        ///< 2^scale vertices
  int edge_factor = 16;  ///< edges = edge_factor * vertices (undirected)
  std::uint64_t seed = 3;
  std::uint64_t page_size = 64 << 10;
  std::uint64_t comm_buffer = 64 << 10;
  bool hint = false;
  bool cps = false;  ///< min-parent combiner on the frontier exchange

  std::uint64_t num_vertices() const {
    return 1ull << scale;
  }
  std::uint64_t num_edges() const {
    return num_vertices() * static_cast<std::uint64_t>(edge_factor);
  }
  /// Deterministic non-isolated root: endpoint of the first edge.
  std::uint64_t root() const {
    return kronecker_edge(scale, seed, 0).first;
  }
};

struct Result {
  std::uint64_t visited = 0;   ///< vertices reached from the root
  std::uint64_t levels = 0;    ///< BFS depth (root = level 0)
  std::uint64_t checksum = 0;  ///< digest over (vertex, level) pairs
  bool spilled = false;            ///< any rank went out of core (MR-MPI)
};

/// Serial reference BFS on the identical generated graph.
Result reference(const RunOptions& opts);

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts);
Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc = mrmpi::OocMode::kSpill);

}  // namespace apps::bfs
