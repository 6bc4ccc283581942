// Dataflow scheduler — job graphs over the Mimir core (the "sched"
// layer).
//
// The iterative applications and in-situ pipelines in this repository
// were hand-rolled loops of independent mimir::Job runs: every stage
// re-negotiated memory on its own and intermediate KVs were moved by
// the caller. This module makes the multi-job structure explicit: a
// sched::Graph is a DAG of JobNodes, each one MapReduce job with a
// declared peak-memory estimate, data edges that hand the producer's
// output KVContainer straight to the consumer's map phase (no PFS
// round-trip), and order edges for control-only dependencies.
//
// The planner (plan_graph) turns a graph into a deterministic schedule
// every rank computes identically from the graph alone:
//
//   * weakly-connected components are the unit of concurrency —
//     a data or order edge keeps its endpoints in the same component,
//     so handed-off containers never cross rank groups;
//   * admission control: components are packed into waves first-fit
//     while the sum of their estimates fits the global memory budget
//     (GraphOptions::memory_budget, default the machine's node memory)
//     and the wave has fewer than max_concurrency groups; a component
//     that does not fit is queued to a later wave;
//   * a node whose own estimate exceeds the budget is degraded before
//     it is queued: the planner enables the existing out-of-core
//     ladder (halving ooc_live_bytes, floor one page) until its
//     projected resident footprint fits;
//   * with max_concurrency 1 (the default) or a single component, the
//     whole graph runs sequentially on the full world, one job after
//     another, with no scheduler collective between them.
//
// Container ownership: each produced output is held by the executor
// with a reference count equal to its unconsumed data consumers. A
// non-final consumer scans the container; the final consumer takes it
// by move (streamed through Job::map_kvs, pages freed as they are
// read), and the memory is released the moment that consumer's map
// finishes. Outputs with no data consumers are destroyed right after
// the node's consume hook runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mimir/job.hpp"
#include "simmpi/runtime.hpp"
#include "simtime/machine.hpp"

namespace mutil {
class Config;
}

namespace sched {

/// What a node callback sees: the execution context (the node's rank
/// group — the full world unless the wave runs concurrent groups), the
/// node id, this rank's world coordinates, and the per-rank session
/// state created by GraphOptions::make_state (nullptr when unset).
struct NodeCtx {
  simmpi::Context& exec;
  int node = -1;  ///< -1 for the epilogue hook
  int world_rank = 0;
  int world_size = 0;
  void* state = nullptr;
};

/// Custom KV source for a node's map phase (in-situ producers,
/// generators, state-driven emitters). May use collectives on
/// `ctx.exec` — every rank of the node's group runs it.
using ProducerFn = std::function<void(NodeCtx&, mimir::Emitter&)>;

/// Applied to each KV arriving over a data edge; defaults to identity
/// re-emit when unset.
using KvMapFn = std::function<void(NodeCtx&, std::string_view key,
                                   std::string_view value,
                                   mimir::Emitter&)>;

/// Reads the node's output container (fresh, or reloaded from its
/// checkpoint on a recovery resume) — the place to fold results into
/// rank-local state. Must not modify a container that feeds downstream
/// consumers; a node with none may move it out to free it early.
using ConsumeFn = std::function<void(NodeCtx&, mimir::KVContainer&)>;

/// One MapReduce job in the graph. The map phase feeds data-edge
/// inputs through `kv_map` and then calls `producer`; the finish phase
/// is `reduce` (convert + reduce), else `partial` (partial_reduce),
/// else map-only (the aggregated intermediate is the output).
struct JobNode {
  std::string name;
  mimir::JobConfig config{};
  /// Declared peak memory per simulated node (bytes) for admission
  /// control; 0 = assume negligible.
  std::uint64_t peak_estimate = 0;
  ProducerFn producer;
  KvMapFn kv_map;
  mimir::CombineFn combiner;  ///< map-side combiner (cps)
  mimir::ReduceFn reduce;
  mimir::CombineFn partial;
  ConsumeFn consume;
};

/// The job DAG. Node ids are dense, in insertion order.
class Graph {
 public:
  /// Add a node; returns its id.
  int add(JobNode node);

  /// Data edge: `producer`'s output container feeds `consumer`'s map
  /// phase (also an execution-order dependency). Rejects duplicates.
  void add_edge(int producer, int consumer);

  /// Control-only dependency: `before` completes before `after` runs.
  void add_order(int before, int after);

  int size() const noexcept { return static_cast<int>(nodes_.size()); }
  const JobNode& node(int id) const;
  /// Data inputs of `id`, in add_edge order.
  const std::vector<int>& inputs(int id) const;
  /// All predecessors of `id` (data and order edges, in add order).
  const std::vector<int>& predecessors(int id) const;
  /// Number of data consumers of `id`'s output.
  int data_consumers(int id) const;

  /// Execution order over data+order edges (smallest ready id first);
  /// throws mutil::UsageError on a cycle.
  std::vector<int> topo_order() const;

  /// Weakly-connected component id per node, normalized to first
  /// appearance in node-id order.
  std::vector<int> components() const;

 private:
  int check_id(int id, const char* what) const;

  std::vector<JobNode> nodes_;
  std::vector<std::vector<int>> inputs_;     ///< data inputs per node
  std::vector<std::vector<int>> succ_;       ///< data+order successors
  std::vector<std::vector<int>> pred_;       ///< data+order predecessors
  std::vector<int> data_consumers_;
};

/// Scheduler knobs; all deterministic inputs to the plan.
struct GraphOptions {
  /// Global memory budget (bytes per simulated node) for admission
  /// control; 0 = the machine's node_memory (0 there too = unlimited).
  std::uint64_t memory_budget = 0;
  /// Maximum independent DAG branches running concurrently over
  /// disjoint rank groups; 1 = fully sequential on the world.
  int max_concurrency = 1;
  /// Save each node's output to the PFS (commit-marker protocol) so a
  /// retry resumes completed nodes instead of re-running them. Off by
  /// default; run_graph_with_recovery forces it on.
  bool checkpoint = false;
  std::string checkpoint_prefix = "sched";
  bool keep_checkpoints = false;
  /// Per-rank session state, created at the start of every attempt and
  /// surfaced via NodeCtx::state. Consume hooks must rebuild all state
  /// they own from node outputs, so a resumed attempt reconstructs it.
  std::function<std::shared_ptr<void>(simmpi::Context&)> make_state;
  /// Runs on every rank (world context) after the last wave.
  std::function<void(NodeCtx&)> epilogue;

  /// Parse "mimir.sched.*" keys (memory_budget, max_concurrency,
  /// checkpoint, checkpoint_prefix, keep_checkpoints).
  static GraphOptions from(const mutil::Config& cfg);
};

/// One rank group within a wave: a run of nodes in topo order on world
/// ranks [rank_begin, rank_end).
struct GroupPlan {
  std::vector<int> nodes;
  int rank_begin = 0;
  int rank_end = 0;
  std::uint64_t estimate = 0;  ///< admission estimate (post-degradation)
};

/// Groups that run concurrently (split communicators when > 1).
struct WavePlan {
  std::vector<GroupPlan> groups;
};

/// The deterministic schedule. Identical on every rank for a fixed
/// (graph, nranks, machine, options) — the executor never communicates
/// to agree on it.
struct Plan {
  std::vector<WavePlan> waves;
  std::uint64_t budget = 0;        ///< effective budget (0 = unlimited)
  int queued_nodes = 0;            ///< nodes deferred past wave 0
  int degraded_nodes = 0;          ///< nodes pre-emptively degraded
  /// Per-node ooc_live_bytes override from admission degradation
  /// (0 = keep the node's configured value).
  std::vector<std::uint64_t> live_bytes;
  std::vector<bool> degraded;
};

/// Compute the schedule (validates the graph; throws mutil::UsageError
/// on cycles or bad edges).
Plan plan_graph(const Graph& graph, int nranks,
                const simtime::MachineProfile& machine,
                const GraphOptions& options);

}  // namespace sched
