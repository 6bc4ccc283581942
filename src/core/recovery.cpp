#include "mimir/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "check/checker.hpp"
#include "mimir/checkpoint.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "stats/registry.hpp"

namespace mimir {

namespace {

/// Why `policy` cannot drive the attempt loop, or nullptr when it can.
const char* policy_error(const RetryPolicy& policy) {
  if (policy.max_attempts < 1) return "max_attempts must be >= 1";
  if (!std::isfinite(policy.backoff_base) || policy.backoff_base < 0.0) {
    return "backoff_base must be finite and >= 0";
  }
  if (!std::isfinite(policy.backoff_factor) || policy.backoff_factor < 1.0) {
    return "backoff_factor must be finite and >= 1";
  }
  return nullptr;
}

}  // namespace

RecoveryPolicy RecoveryPolicy::from(const mutil::Config& cfg) {
  RecoveryPolicy policy;
  policy.max_attempts = static_cast<int>(
      cfg.get_int("mimir.recovery.max_attempts", policy.max_attempts));
  policy.backoff_base =
      cfg.get_double("mimir.recovery.backoff_base", policy.backoff_base);
  policy.backoff_factor =
      cfg.get_double("mimir.recovery.backoff_factor", policy.backoff_factor);
  policy.degrade_on_oom =
      cfg.get_bool("mimir.recovery.degrade_on_oom", policy.degrade_on_oom);
  policy.checkpoint =
      cfg.get_string("mimir.recovery.checkpoint", policy.checkpoint);
  policy.keep_checkpoint =
      cfg.get_bool("mimir.recovery.keep_checkpoint", policy.keep_checkpoint);
  if (const char* error = policy_error(policy)) {
    throw mutil::ConfigError(std::string("mimir.recovery: ") + error);
  }
  return policy;
}

RetryOutcome run_attempts(int nranks, const simtime::MachineProfile& machine,
                          pfs::FileSystem& fs, const AttemptLoop& loop,
                          const RetryPolicy& policy,
                          const inject::FaultPlan* plan,
                          stats::Collector* collector,
                          check::JobChecker* checker) {
  if (const char* error = policy_error(policy)) {
    throw mutil::UsageError(std::string("retry policy: ") + error);
  }

  const auto diag = [&](check::Severity severity, const char* code,
                        std::string message, const AttemptRecord& rec) {
    if (checker == nullptr) return;
    check::Diagnostic d;
    d.severity = severity;
    d.analyzer = loop.analyzer;
    d.code = code;
    d.message = std::move(message);
    if (rec.failed_rank >= 0) d.ranks = {rec.failed_rank};
    d.sim_time = rec.failed_time;
    checker->report().add(std::move(d));
  };

  RetryOutcome out;
  Attempt attempt;
  attempt.live_budget = loop.live_budget;
  // Every rank starts attempt k with its clock advanced by the
  // accumulated offset (previous failure time + backoff), so the
  // successful attempt's JobStats.sim_time is the total simulated
  // time-to-completion including the failed attempts.
  double start_offset = 0.0;

  for (;; ++attempt.number) {
    AttemptRecord rec;
    rec.attempt = attempt.number;
    rec.live_budget = attempt.live_budget;

    std::exception_ptr failure;
    bool oom = false;
    try {
      out.stats = simmpi::run(
          nranks, machine, fs,
          [&](simmpi::Context& ctx) {
            std::optional<inject::Injector> injector;
            std::optional<inject::ScopedInject> scope;
            if (plan != nullptr && !plan->empty()) {
              injector.emplace(*plan, ctx.rank(), attempt.number);
              injector->bind(&ctx.clock(), &ctx.tracker);
              injector->set_topology(machine.ranks_per_node);
              scope.emplace(&*injector);
            }
            if (start_offset > 0.0) ctx.clock().advance(start_offset);
            try {
              loop.body(ctx, attempt);
            } catch (const mutil::OutOfMemoryError& e) {
              // The tracker has no clock: stamp the failure time here,
              // so the retry starts past it like a rank death's does.
              throw mutil::OutOfMemoryError(e.what(), e.requested(),
                                            e.limit(), ctx.clock().now());
            }
            if (stats::Registry* reg = stats::current()) {
              reg->add(loop.counters + ".attempts",
                       static_cast<std::uint64_t>(attempt.number));
              reg->add_seconds(loop.counters + ".backoff_seconds",
                               out.total_backoff);
            }
          },
          collector, checker);
      rec.ok = true;
      out.history.push_back(rec);
      out.attempts = attempt.number;
      return out;
    } catch (const mutil::OutOfMemoryError& e) {
      failure = std::current_exception();
      rec.error = e.what();
      rec.failed_time = e.sim_time();
      oom = true;
    } catch (const mutil::RankFailedError& e) {
      failure = std::current_exception();
      rec.error = e.what();
      rec.failed_rank = e.rank();
      rec.failed_time = e.sim_time();
    } catch (const mutil::TransientIoError& e) {
      failure = std::current_exception();
      rec.error = e.what();
      rec.failed_time = e.sim_time();
    }
    // Any other error (UsageError and ConfigError above all) has left
    // the loop already: a caller bug, not a fault, is never retried.

    const std::string number = std::to_string(attempt.number);
    if (oom) {
      const std::uint64_t next =
          loop.on_oom ? loop.on_oom(attempt.live_budget) : 0;
      if (next == 0) std::rethrow_exception(failure);
      attempt.live_budget = next;
      diag(check::Severity::kWarning, "oom-degraded",
           "attempt " + number +
               " ran out of memory; retrying with ooc_live_bytes=" +
               std::to_string(next),
           rec);
    }

    if (attempt.number >= policy.max_attempts) {
      diag(check::Severity::kError, "retries-exhausted",
           "giving up after " + number + " attempts: " + rec.error, rec);
      std::rethrow_exception(failure);
    }

    rec.backoff =
        policy.backoff_base *
        std::pow(policy.backoff_factor, static_cast<double>(attempt.number - 1));
    out.total_backoff += rec.backoff;
    start_offset = std::max(start_offset, rec.failed_time) + rec.backoff;
    out.history.push_back(rec);
    diag(check::Severity::kWarning, "attempt-failed",
         "attempt " + number + " failed (" + rec.error + "); retrying after " +
             std::to_string(rec.backoff) + "s simulated backoff",
         rec);
  }
}

OomHook oom_ladder(const RecoveryPolicy& policy,
                   const simtime::MachineProfile& machine,
                   std::uint64_t page, RecoveryOutcome& out) {
  if (!policy.degrade_on_oom) return {};
  return [&machine, page, &out](std::uint64_t live) -> std::uint64_t {
    if (live == 0 && machine.node_memory != 0) {
      live = machine.node_memory /
             static_cast<std::uint64_t>(std::max(1, machine.ranks_per_node));
    }
    const std::uint64_t next = live / 2;
    if (next < page) return 0;  // one page does not fit: the OOM is final
    out.degraded = true;
    out.degraded_live_bytes = next;
    return next;
  };
}

RecoveryOutcome run_with_recovery(int nranks,
                                  const simtime::MachineProfile& machine,
                                  pfs::FileSystem& fs,
                                  const RecoveryJob& jobspec,
                                  const RecoveryPolicy& policy,
                                  const inject::FaultPlan* plan,
                                  stats::Collector* collector,
                                  check::JobChecker* checker) {
  if (!jobspec.map) {
    throw mutil::UsageError("run_with_recovery: jobspec.map is required");
  }

  RecoveryOutcome out;
  std::atomic<bool> resumed_any{false};
  AttemptLoop loop;
  loop.analyzer = "recovery";
  loop.counters = "recovery";
  loop.live_budget = jobspec.config.ooc_live_bytes;
  loop.on_oom = oom_ladder(policy, machine, jobspec.config.page_size, out);
  loop.body = [&](simmpi::Context& ctx, const Attempt& attempt) {
    JobConfig cfg = jobspec.config;
    cfg.ooc_live_bytes = attempt.live_budget;
    const bool resume =
        attempt.number > 1 && checkpoint_exists(ctx, policy.checkpoint);
    if (resume) resumed_any.store(true, std::memory_order_relaxed);
    Job job = [&]() -> Job {
      if (resume) return resume_job(ctx, cfg, policy.checkpoint);
      Job fresh(ctx, cfg);
      jobspec.map(fresh);
      checkpoint_job(fresh, policy.checkpoint);
      return fresh;
    }();
    if (jobspec.finish) jobspec.finish(job);
    if (!policy.keep_checkpoint) remove_checkpoint(ctx, policy.checkpoint);
    if (stats::Registry* reg = stats::current()) {
      if (resume) reg->add("recovery.resumed", 1);
      if (out.degraded) reg->add("recovery.degraded", 1);
    }
  };
  static_cast<RetryOutcome&>(out) =
      run_attempts(nranks, machine, fs, loop, policy, plan, collector, checker);
  out.resumed = resumed_any.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mimir
