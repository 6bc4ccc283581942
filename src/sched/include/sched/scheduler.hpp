// Graph execution and graph-level recovery.
//
// run_graph executes a planned sched::Graph inside one simmpi::run:
// every rank walks the plan's waves; a wave with several groups splits
// the world communicator so independent DAG branches run concurrently,
// each group running its nodes in topological order. Intermediate
// outputs are handed producer-to-consumer in memory with refcounted
// ownership (see graph.hpp).
//
// run_graph_with_recovery lifts run_with_recovery (core/recovery.hpp)
// to the graph: every completed node's output is checkpointed to the
// PFS under "<prefix>-n<id>", so a retry resumes each completed node by
// reloading its container — completed ancestors are never re-executed,
// only their consume hooks replay to rebuild rank-local state. Failures
// are classified, backed off and reported by the shared attempt loop
// (mimir::run_attempts; analyzer and counter prefix "sched"); its OOM
// hook is mimir::oom_ladder, capping the live-bytes budget graph-wide.
// run_graph is the same execution as a single attempt with no retry;
// run_in runs that attempt on a context the caller already holds.
#pragma once

#include <cstdint>
#include <vector>

#include "mimir/recovery.hpp"
#include "sched/critical_path.hpp"
#include "sched/graph.hpp"

namespace stats {
class Collector;
}
namespace check {
class JobChecker;
}

namespace sched {

/// Result of a graph run: the successful attempt's whole-graph stats
/// (one simmpi::run), attempt history and resume/degradation flags
/// (`resumed`: some attempt reloaded checkpoints; `degraded`: the OOM
/// ladder engaged), plus the schedule.
struct GraphOutcome : mimir::RecoveryOutcome {
  Plan plan;               ///< the schedule that was executed
  std::uint64_t resumed_nodes = 0;  ///< nodes restored instead of re-run
  /// Longest completion chain of the successful attempt; empty unless a
  /// stats collector was attached (also exported to the collector as
  /// the "critical_path" summary section).
  CriticalPath critical;

  int jobs() const noexcept {
    return static_cast<int>(plan.live_bytes.size());
  }
  int waves() const noexcept { return static_cast<int>(plan.waves.size()); }
  int admitted() const noexcept { return jobs() - plan.queued_nodes; }
};

/// Plan and execute `graph` on `nranks` ranks. Throws the first rank
/// failure like simmpi::run (no retry).
GraphOutcome run_graph(int nranks, const simtime::MachineProfile& machine,
                       pfs::FileSystem& fs, const Graph& graph,
                       const GraphOptions& options = {},
                       stats::Collector* collector = nullptr,
                       check::JobChecker* checker = nullptr);

/// run_graph's single attempt on the caller's context: every rank of
/// `ctx` calls it, e.g. inside the caller's own simmpi::run. It adds no
/// sched.* counters and no critical path (those are run_graph's).
void run_in(simmpi::Context& ctx, const Graph& graph,
            const GraphOptions& options = {});

/// Execute `graph` under the recovery policy: per-node checkpoints are
/// forced on (prefix = policy.checkpoint) and each retry resumes every
/// node whose checkpoint committed. `fault_plan` injects failures per
/// rank (inject/fault.hpp) with node topology bound from `machine`.
GraphOutcome run_graph_with_recovery(
    int nranks, const simtime::MachineProfile& machine,
    pfs::FileSystem& fs, const Graph& graph, const GraphOptions& options,
    const mimir::RecoveryPolicy& policy = {},
    const inject::FaultPlan* fault_plan = nullptr,
    stats::Collector* collector = nullptr,
    check::JobChecker* checker = nullptr);

}  // namespace sched
