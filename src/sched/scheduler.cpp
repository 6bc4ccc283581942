#include "sched/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "check/race.hpp"
#include "memtrack/tracker.hpp"
#include "mimir/checkpoint.hpp"
#include "stats/registry.hpp"
#include "stats/trace.hpp"

namespace sched {

namespace {

/// Per-run knobs shared by every rank thread (read-only during the run,
/// except the atomic resume marks).
struct ExecControl {
  bool checkpoint = false;
  std::string prefix;
  bool keep_checkpoints = false;
  /// Per node id: the last attempt that restored it from its checkpoint
  /// (0 = none). Null under run_in, which runs attempt 1 only.
  std::vector<std::atomic<int>>* resumed_at = nullptr;
};

std::string node_checkpoint(const std::string& prefix, int id) {
  return prefix + "-n" + std::to_string(id);
}

/// mimir-race handoff-edge key for node `id`'s output on world rank
/// `rank`. The rank is part of the key so the edge stays within one
/// rank's producer -> consumer chain and never invents a cross-rank
/// ordering the executor does not provide.
std::uint64_t handoff_key(int id, int rank) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank));
}

/// Execute one group's run of nodes on its (possibly split) context.
void run_group(simmpi::Context& exec, simmpi::Context& world,
               const Graph& graph, const Plan& plan,
               const GroupPlan& group, const ExecControl& ctl,
               const mimir::Attempt& attempt, void* state) {
  // Producer outputs still owed to consumers, with remaining reader
  // counts — the refcounted handoff. All nodes of a weakly-connected
  // component run in the same group, so no container crosses groups.
  std::map<int, mimir::KVContainer> outputs;
  std::map<int, int> readers_left;

  for (const int id : group.nodes) {
    const JobNode& node = graph.node(id);
    const std::string span = "sched:" + node.name;
    const stats::PhaseScope phase(span);
    NodeCtx nctx{exec, id, world.rank(), world.size(), state};

    mimir::JobConfig cfg = node.config;
    if (plan.live_bytes[static_cast<std::size_t>(id)] != 0) {
      cfg.ooc_live_bytes = plan.live_bytes[static_cast<std::size_t>(id)];
    }
    // The OOM ladder's graph-wide cap composes with per-node planner
    // overrides.
    if (attempt.live_budget != 0) {
      cfg.ooc_live_bytes =
          cfg.ooc_live_bytes == 0
              ? attempt.live_budget
              : std::min(cfg.ooc_live_bytes, attempt.live_budget);
    }

    const std::string ckpt = node_checkpoint(ctl.prefix, id);
    const std::vector<int>& ins = graph.inputs(id);
    // Join each producer's published clock before touching its
    // container: the producer -> consumer handoff happens-before edge.
    for (const int in : ins) {
      check::race_handoff_acquire(handoff_key(in, world.rank()));
    }
    std::optional<mimir::KVContainer> out;

    if (ctl.checkpoint && attempt.number > 1 &&
        mimir::checkpoint_exists(exec, ckpt)) {
      // Completed ancestor: restore its output instead of re-running.
      // The load itself is skipped when nobody reads the output (no
      // consume hook, no data consumers).
      (*ctl.resumed_at)[static_cast<std::size_t>(id)].store(
          attempt.number, std::memory_order_relaxed);
      if (node.consume || graph.data_consumers(id) > 0) {
        // Restored handoff containers are scheduler-owned, not part of
        // any single job — attribute their pages to the handoff.
        const memtrack::TagScope tag("sched.handoff",
                                     memtrack::TagScope::Mode::kFallback);
        out.emplace(mimir::load_container(exec, ckpt, cfg.page_size));
      }
    } else {
      mimir::Job job(exec, cfg);
      const auto feed = [&](std::string_view key, std::string_view value,
                            mimir::Emitter& emitter) {
        if (node.kv_map) {
          node.kv_map(nctx, key, value, emitter);
        } else {
          emitter.emit(key, value);
        }
      };
      // A single data input whose last reader we are streams through
      // map_kvs by move — the exact code path (costs, metrics, page
      // frees) of the manual `job.map_kvs(prev.take_output(), ...)`
      // idiom this scheduler replaces.
      if (ins.size() == 1 && !node.producer &&
          readers_left.at(ins.front()) == 1) {
        job.map_kvs(std::move(outputs.at(ins.front())),
                    [&](std::string_view key, std::string_view value,
                        mimir::Emitter& emitter) {
                      feed(key, value, emitter);
                    },
                    node.combiner);
      } else {
        job.map_custom(
            [&](mimir::Emitter& emitter) {
              const double rate = exec.machine.map_rate;
              for (const int in : ins) {
                mimir::KVContainer& src = outputs.at(in);
                const auto visit = [&](const mimir::KVView& kv) {
                  exec.clock().advance(
                      static_cast<double>(kv.key.size() + kv.value.size()) /
                      rate);
                  feed(kv.key, kv.value, emitter);
                };
                if (readers_left.at(in) == 1) {
                  src.consume(visit);  // last reader frees as it reads
                } else {
                  src.scan(visit);
                }
              }
              if (node.producer) node.producer(nctx, emitter);
            },
            node.combiner);
      }
      if (node.reduce) {
        job.reduce(node.reduce);
        out.emplace(job.take_output());
      } else if (node.partial) {
        job.partial_reduce(node.partial);
        out.emplace(job.take_output());
      } else {
        out.emplace(job.take_intermediate());
      }
      if (ctl.checkpoint) {
        mimir::save_container(exec, *out, ckpt);
      }
    }

    // Release input refcounts: the last consumer's decrement frees the
    // producer's container (it was already drained if we streamed it).
    for (const int in : ins) {
      if (--readers_left.at(in) == 0) {
        outputs.erase(in);
        readers_left.erase(in);
      }
    }

    if (node.consume && out.has_value()) {
      node.consume(nctx, *out);
    }
    if (graph.data_consumers(id) > 0) {
      readers_left.emplace(id, graph.data_consumers(id));
      outputs.emplace(id, std::move(*out));
      check::race_handoff_publish(handoff_key(id, world.rank()));
    }
    // else: `out` dies here — memory back the moment the last (only)
    // consumer is done, which for a sink is the node itself.
  }
}

/// The rank function for one attempt.
void run_rank(simmpi::Context& world, const Graph& graph, const Plan& plan,
              const GraphOptions& options, const ExecControl& ctl,
              const mimir::Attempt& attempt) {
  std::shared_ptr<void> state;
  if (options.make_state) state = options.make_state(world);

  for (const WavePlan& wave : plan.waves) {
    if (wave.groups.size() == 1) {
      // One branch: run on the world directly — no communicator split,
      // no synchronization beyond the jobs' own collectives, i.e. the
      // exact execution shape of the manual sequential loop.
      run_group(world, world, graph, plan, wave.groups.front(), ctl,
                attempt, state.get());
      continue;
    }
    int color = -1;
    for (std::size_t g = 0; g < wave.groups.size(); ++g) {
      if (world.rank() >= wave.groups[g].rank_begin &&
          world.rank() < wave.groups[g].rank_end) {
        color = static_cast<int>(g);
        break;
      }
    }
    {
      auto sub = world.comm.split(color, world.comm.rank());
      simmpi::Context exec{*sub, world.tracker, world.fs, world.machine};
      run_group(exec, world, graph, plan,
                wave.groups[static_cast<std::size_t>(color)], ctl, attempt,
                state.get());
    }
    // Branches finish at different simulated times; the wave boundary
    // synchronizes the world to the slowest one.
    world.comm.clock_sync();
  }

  if (options.epilogue) {
    NodeCtx ectx{world, -1, world.rank(), world.size(), state.get()};
    options.epilogue(ectx);
  }

  if (ctl.checkpoint && !ctl.keep_checkpoints) {
    // Collective cleanup on the *world*: shards were written with
    // group-local rank indices (a subset of world ranks), so every
    // world rank sweeps its own index. Commit markers go first, so a
    // checkpoint never looks committed while half-deleted.
    world.comm.barrier();
    for (int id = 0; id < graph.size(); ++id) {
      const std::string base =
          "ckpt/" + node_checkpoint(ctl.prefix, id) + "/";
      if (world.rank() == 0) world.fs.remove(base + "commit");
    }
    world.comm.barrier();
    for (int id = 0; id < graph.size(); ++id) {
      const std::string base =
          "ckpt/" + node_checkpoint(ctl.prefix, id) + "/";
      const std::string shard =
          base + "shard" + std::to_string(world.rank());
      if (world.fs.exists(shard)) world.fs.remove(shard);
    }
    world.comm.barrier();
  }
}

/// Plan `graph` and run it through the attempt loop: everything
/// run_graph and run_graph_with_recovery share. `checkpoint` turns the
/// per-node checkpoints on, named after policy.checkpoint.
GraphOutcome execute(int nranks, const simtime::MachineProfile& machine,
                     pfs::FileSystem& fs, const Graph& graph,
                     const GraphOptions& options,
                     const mimir::RecoveryPolicy& policy, bool checkpoint,
                     const inject::FaultPlan* fault_plan,
                     stats::Collector* collector,
                     check::JobChecker* checker) {
  GraphOutcome out;
  out.plan = plan_graph(graph, nranks, machine, options);

  std::vector<std::atomic<int>> resumed_at(
      static_cast<std::size_t>(graph.size()));
  ExecControl ctl;
  ctl.checkpoint = checkpoint;
  ctl.prefix = policy.checkpoint;
  ctl.keep_checkpoints = policy.keep_checkpoint;
  ctl.resumed_at = &resumed_at;

  // The degradation ladder bottoms out when halving again would drop
  // some node's live budget below its page size.
  std::uint64_t max_page = 0;
  for (int id = 0; id < graph.size(); ++id) {
    max_page = std::max(max_page, graph.node(id).config.page_size);
  }

  mimir::AttemptLoop loop;
  loop.analyzer = "sched";
  loop.counters = "sched";
  loop.on_oom = mimir::oom_ladder(policy, machine, max_page, out);
  loop.body = [&](simmpi::Context& ctx, const mimir::Attempt& attempt) {
    run_rank(ctx, graph, out.plan, options, ctl, attempt);
    stats::Registry* reg = stats::current();
    if (reg == nullptr) return;
    std::uint64_t my_resumed = 0;
    for (const auto& at : resumed_at) {
      if (at.load(std::memory_order_relaxed) == attempt.number) ++my_resumed;
    }
    const Plan& plan = out.plan;
    reg->add("sched.jobs", static_cast<std::uint64_t>(graph.size()));
    reg->add("sched.admitted",
             static_cast<std::uint64_t>(graph.size() - plan.queued_nodes));
    reg->add("sched.queued", static_cast<std::uint64_t>(plan.queued_nodes));
    reg->add("sched.degraded",
             static_cast<std::uint64_t>(plan.degraded_nodes));
    reg->add("sched.waves", static_cast<std::uint64_t>(plan.waves.size()));
    reg->add("sched.resumed_nodes", my_resumed);
  };
  static_cast<mimir::RetryOutcome&>(out) = mimir::run_attempts(
      nranks, machine, fs, loop, policy, fault_plan, collector, checker);

  for (const auto& at : resumed_at) {
    const int resumed = at.load(std::memory_order_relaxed);
    out.resumed = out.resumed || resumed != 0;
    if (resumed == out.attempts) ++out.resumed_nodes;
  }
  if (collector != nullptr) {
    out.critical = critical_path(graph, out.plan, *collector);
    if (!out.critical.empty()) {
      collector->set_section("critical_path", out.critical.json());
    }
  }
  return out;
}

}  // namespace

void run_in(simmpi::Context& ctx, const Graph& graph,
            const GraphOptions& options) {
  ExecControl ctl;
  ctl.checkpoint = options.checkpoint;
  ctl.prefix = options.checkpoint_prefix;
  ctl.keep_checkpoints = options.keep_checkpoints;
  run_rank(ctx, graph, plan_graph(graph, ctx.size(), ctx.machine, options),
           options, ctl, mimir::Attempt{});
}

GraphOutcome run_graph(int nranks, const simtime::MachineProfile& machine,
                       pfs::FileSystem& fs, const Graph& graph,
                       const GraphOptions& options,
                       stats::Collector* collector,
                       check::JobChecker* checker) {
  mimir::RecoveryPolicy once;
  once.max_attempts = 1;
  once.degrade_on_oom = false;
  once.checkpoint = options.checkpoint_prefix;
  once.keep_checkpoint = options.keep_checkpoints;
  return execute(nranks, machine, fs, graph, options, once,
                 options.checkpoint, nullptr, collector, checker);
}

GraphOutcome run_graph_with_recovery(
    int nranks, const simtime::MachineProfile& machine,
    pfs::FileSystem& fs, const Graph& graph, const GraphOptions& options,
    const mimir::RecoveryPolicy& policy,
    const inject::FaultPlan* fault_plan, stats::Collector* collector,
    check::JobChecker* checker) {
  return execute(nranks, machine, fs, graph, options, policy,
                 /*checkpoint=*/true, fault_plan, collector, checker);
}

}  // namespace sched
