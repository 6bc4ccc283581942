// PageRank — an additional iterative MapReduce workload of the class the
// paper's introduction motivates (MR-MPI's own flagship applications are
// large-scale graph algorithms; Plimpton & Devine evaluate PageRank-like
// kernels). Exercises floating-point values, dangling-mass reduction,
// and repeated full-graph shuffles on both frameworks.
//
// Power iteration with damping d over the directed Kronecker graph
// (edges u->v only):
//
//   pr'(v) = (1-d)/N + d * (sum_{u->v} pr(u)/outdeg(u) + dangling/N)
//
// Each iteration is one MapReduce job: map emits (v, pr(u)/outdeg(u))
// contributions from the owner of u; the reduction sums contributions
// at the owner of v. The sum-combiner makes pr/cps applicable.
//
// The Mimir driver is written once, as the sched::Graph of make_sched;
// run_mimir runs that graph on the caller's context (sched::run_in).
// tests/sched/test_sched_apps.cpp pins its clock, shuffle volume, rank
// peaks and map-phase time.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mimir/job.hpp"
#include "mrmpi/mrmpi.hpp"
#include "sched/graph.hpp"
#include "simmpi/runtime.hpp"

namespace apps::pr {

struct RunOptions {
  int scale = 10;        ///< 2^scale vertices
  int edge_factor = 16;  ///< directed edges = edge_factor * vertices
  std::uint64_t seed = 3;
  int iterations = 10;
  double damping = 0.85;
  std::uint64_t page_size = 64 << 10;
  std::uint64_t comm_buffer = 64 << 10;
  bool hint = false;
  bool cps = false;
  bool overlap = false;  ///< double-buffered non-blocking shuffle
  bool balance = false;  ///< skew-aware partitioning on iteration jobs
  /// External edge list (benchmarks: power-law graphs from
  /// bench/workloads). Empty = the default Kronecker generator with
  /// (scale, edge_factor, seed). Shared so RunOptions stays copyable.
  std::shared_ptr<const std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      edges;

  std::uint64_t num_vertices() const { return 1ull << scale; }
  std::uint64_t num_edges() const {
    if (edges != nullptr) return edges->size();
    return num_vertices() * static_cast<std::uint64_t>(edge_factor);
  }
};

struct Result {
  double total_rank = 0;   ///< should stay ~1.0
  double max_rank = 0;     ///< highest PageRank value
  std::uint64_t max_vertex = 0;
  double last_delta = 0;   ///< L1 change of the final iteration
  bool spilled = false;
};

/// Serial reference (same graph, same iteration count).
Result reference(const RunOptions& opts);
/// Reference vector for per-vertex comparisons in tests.
std::unordered_map<std::uint64_t, double> reference_ranks(
    const RunOptions& opts);

/// make_sched(opts, ctx.size()) run by sched::run_in; every rank of
/// `ctx` calls it.
Result run_mimir(simmpi::Context& ctx, const RunOptions& opts);
Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc = mrmpi::OocMode::kSpill);

/// One entry of the downstream top-k job: contribution mass received by
/// a vertex in the final iteration.
struct TopKEntry {
  double contribution = 0;
  std::uint64_t vertex = 0;

  friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

/// PageRank as a sched::Graph: a partition node, one node per power
/// iteration (chained with order edges), and — when top_k > 0 — a
/// downstream top-k job fed by a data edge from the last iteration.
/// `options` comes prefilled with the per-rank state factory and the
/// epilogue; callers may still set budget/concurrency/checkpoint knobs
/// before running the graph. The graph resumes from checkpoints
/// (sched::run_graph_with_recovery).
struct SchedRun {
  sched::Graph graph;
  sched::GraphOptions options;
  std::shared_ptr<std::vector<Result>> results;  ///< per world rank
  /// Per world rank: its merged top-k entries (non-empty only on the
  /// hash owner of the top-k key).
  std::shared_ptr<std::vector<std::vector<TopKEntry>>> tops;
};
SchedRun make_sched(const RunOptions& opts, int nranks, int top_k = 0);

}  // namespace apps::pr
