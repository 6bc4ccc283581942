#include "simmpi/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "check/checker.hpp"
#include "check/race.hpp"
#include "shared_state.hpp"
#include "stats/registry.hpp"
#include "stats/trace.hpp"

namespace simmpi {

JobStats run(int nranks, const simtime::MachineProfile& machine,
             pfs::FileSystem& fs, const RankFn& fn,
             stats::Collector* collector, check::JobChecker* checker) {
  if (nranks <= 0) {
    throw mutil::ConfigError("simmpi::run: nranks must be positive");
  }
  if (checker == nullptr) checker = check::global_checker();
  const int ranks_per_node = std::max(1, machine.ranks_per_node);
  const int nodes = (nranks + ranks_per_node - 1) / ranks_per_node;

  auto shared = std::make_shared<detail::SharedState>(
      nranks, machine.net_latency, machine.net_bandwidth);

  std::vector<std::unique_ptr<memtrack::NodeBudget>> budgets;
  budgets.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    budgets.push_back(
        std::make_unique<memtrack::NodeBudget>(machine.node_memory));
  }

  std::vector<std::unique_ptr<memtrack::Tracker>> trackers(
      static_cast<std::size_t>(nranks));
  std::vector<std::unique_ptr<Communicator>> comms(
      static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    trackers[static_cast<std::size_t>(r)] =
        std::make_unique<memtrack::Tracker>(
            budgets[static_cast<std::size_t>(r / ranks_per_node)].get());
    comms[static_cast<std::size_t>(r)] =
        std::make_unique<Communicator>(shared, r);
  }

  const pfs::IoStats io_before = fs.stats();

  // Phase context for diagnostics comes from the stats registries; when
  // checking without a caller-provided collector, bind an internal one.
  std::optional<stats::Collector> internal_collector;
  if (checker != nullptr && collector == nullptr) {
    internal_collector.emplace();
    collector = &*internal_collector;
  }
  if (collector != nullptr) collector->reset(nranks);

  std::size_t diagnostics_before = 0;
  if (checker != nullptr) {
    diagnostics_before = checker->report().size();
    checker->reset(nranks);
    shared->checker = checker;
    std::weak_ptr<detail::SharedState> weak_shared = shared;
    checker->start_watchdog([weak_shared](const std::string& message) {
      if (const auto s = weak_shared.lock()) {
        s->abort(std::make_exception_ptr(
            mutil::CommError("mimir-check: " + message)));
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Context ctx{*comms[static_cast<std::size_t>(r)],
                  *trackers[static_cast<std::size_t>(r)], fs, machine};
      std::optional<stats::ScopedBind> stats_bind;
      if (collector != nullptr) {
        stats::Registry& registry = collector->rank(r);
        registry.bind(r, nranks, &ctx.clock(), &ctx.tracker);
        stats_bind.emplace(&registry);
      }
      std::optional<check::ScopedAudit> audit_bind;
      std::optional<check::ScopedRaceRank> race_bind;
      if (checker != nullptr) {
        audit_bind.emplace(&checker->auditor(r));
        // Null detector when race checking is off: the annotation API
        // and page hooks see no binding and stay zero-cost.
        race_bind.emplace(checker->race(), r, &ctx.clock());
      }
      try {
        fn(ctx);
        // Snapshot the rank's memory breakdown while the tracker is
        // still alive (the registry outlives this run, the tracker
        // does not).
        if (collector != nullptr) collector->rank(r).capture_memory();
        if (checker != nullptr) {
          // Only a successful rank is held to the lifecycle contract;
          // a throwing rank legitimately abandons in-flight pages.
          checker->auditor(r).final_audit(ctx.tracker);
          checker->rank_finished(r);
        }
      } catch (...) {
        if (collector != nullptr) {
          try {
            collector->rank(r).capture_memory();
          } catch (...) {
            // Best-effort on the failure path.
          }
        }
        if (checker != nullptr) checker->rank_finished(r);
        shared->abort(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();

  if (checker != nullptr) {
    checker->stop_watchdog();
    for (const check::Diagnostic& d : checker->report().diagnostics()) {
      if (diagnostics_before > 0) {
        --diagnostics_before;
        continue;
      }
      std::fprintf(stderr, "[WARN] mimir-check: %s\n", d.text().c_str());
    }
  }

  {
    const std::scoped_lock lock(shared->error_mutex);
    if (shared->first_error) std::rethrow_exception(shared->first_error);
  }

  JobStats stats;
  stats.ranks = nranks;
  stats.nodes = nodes;
  for (int r = 0; r < nranks; ++r) {
    auto& comm = *comms[static_cast<std::size_t>(r)];
    stats.sim_time = std::max(stats.sim_time, comm.clock().now());
    stats.shuffle_bytes += comm.stats().bytes_sent;
  }
  stats.node_peaks.reserve(budgets.size());
  for (const auto& budget : budgets) {
    stats.node_peaks.push_back(budget->peak());
    stats.node_peak = std::max<std::uint64_t>(stats.node_peak,
                                              budget->peak());
  }
  const pfs::IoStats io_after = fs.stats();
  stats.io.bytes_read = io_after.bytes_read - io_before.bytes_read;
  stats.io.bytes_written = io_after.bytes_written - io_before.bytes_written;
  stats.io.read_ops = io_after.read_ops - io_before.read_ops;
  stats.io.write_ops = io_after.write_ops - io_before.write_ops;
  return stats;
}

JobStats run_test(int nranks, const RankFn& fn,
                  stats::Collector* collector, check::JobChecker* checker) {
  const simtime::MachineProfile machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, nranks);
  return run(nranks, machine, fs, fn, collector, checker);
}

}  // namespace simmpi
