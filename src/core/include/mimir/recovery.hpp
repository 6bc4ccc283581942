// Job recovery: the attempt loop every retrying driver shares, and
// Mimir's checkpoint-resume driver on top of it.
//
// Mimir's substrate aborts a job as a unit: the first rank to throw
// (a crash injected by inject::Injector, a transient PFS error, or a
// genuine OutOfMemoryError) unwinds every other rank out of its
// collectives. run_attempts wraps simmpi::run in a bounded retry loop
// around that unit-abort behaviour, and is the one place that decides,
// for run_with_recovery, mrmpi::run_with_retry and
// sched::run_graph_with_recovery alike:
//
//   * what retries: RankFailedError and TransientIoError back off and
//     retry; OutOfMemoryError goes to the driver's OOM hook (final when
//     there is none); everything else — mutil::UsageError/ConfigError
//     above all — is rethrown at once: a caller bug, not a fault;
//   * when: each retry waits an exponential backoff on the *simulated*
//     clock — every rank starts attempt k with its clock advanced past
//     the previous failure time plus base*factor^(k-1), so the returned
//     JobStats.sim_time is the total simulated time-to-completion
//     including failed attempts;
//   * how it is reported: one AttemptRecord per attempt, the
//     "<counters>.attempts" and "<counters>.backoff_seconds" stats
//     counters on the successful attempt, and attempt-failed /
//     oom-degraded / retries-exhausted diagnostics under the driver's
//     analyzer name in the check::Report when a checker is attached.
//
// run_with_recovery keeps only what is Mimir's: after the map+aggregate
// phase completes, the intermediate data is checkpointed to the PFS
// (mimir/checkpoint.hpp), and a retry that finds a committed checkpoint
// resumes from it instead of re-running map. Its OOM hook is the
// degradation ladder (oom_ladder).
//
// Attempt counts and backoff schedules are deterministic for a fixed
// FaultPlan seed (see inject/fault.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inject/fault.hpp"
#include "mimir/job.hpp"
#include "simmpi/runtime.hpp"

namespace mutil {
class Config;
}

namespace mimir {

/// Retry knobs of the attempt loop. run_attempts rejects a policy with
/// max_attempts < 1, a negative or non-finite backoff_base, or a
/// backoff_factor below 1 (or non-finite) with mutil::UsageError.
struct RetryPolicy {
  int max_attempts = 5;          ///< total attempts (first try included)
  double backoff_base = 0.5;     ///< simulated seconds before retry 1
  double backoff_factor = 2.0;   ///< exponential growth per retry
};

/// run_with_recovery's knobs: the loop's, plus checkpoint and OOM
/// degradation.
struct RecoveryPolicy : RetryPolicy {
  /// Retry an OutOfMemoryError with out-of-core spill enabled and the
  /// live-bytes budget halved (repeatedly, down to one page). Off =
  /// OOM is rethrown like any other non-recoverable error.
  bool degrade_on_oom = true;
  std::string checkpoint = "recovery";  ///< checkpoint name on the PFS
  bool keep_checkpoint = false;  ///< leave the checkpoint after success

  /// Parse "mimir.recovery.*" keys (max_attempts, backoff_base,
  /// backoff_factor, degrade_on_oom, checkpoint, keep_checkpoint);
  /// throws mutil::ConfigError on a bad value.
  static RecoveryPolicy from(const mutil::Config& cfg);
};

/// One attempt of the retry loop, successful or not.
struct AttemptRecord {
  int attempt = 1;
  bool ok = false;
  std::string error;        ///< what() of the failure; empty on success
  int failed_rank = -1;     ///< dead rank for rank-death failures
  double failed_time = 0.0; ///< simulated failure time when known
  double backoff = 0.0;     ///< simulated backoff charged before retry
  std::uint64_t live_budget = 0;  ///< ooc_live_bytes in effect (0 = off)
};

/// Result of the attempt loop.
struct RetryOutcome {
  simmpi::JobStats stats;   ///< the successful attempt (clock includes
                            ///< failed attempts and backoff)
  int attempts = 1;
  double total_backoff = 0.0;             ///< simulated seconds
  std::vector<AttemptRecord> history;     ///< one entry per attempt
};

/// Result of a recovered job.
struct RecoveryOutcome : RetryOutcome {
  bool resumed = false;     ///< some attempt resumed from the checkpoint
  bool degraded = false;    ///< OOM degradation kicked in
  std::uint64_t degraded_live_bytes = 0;  ///< final live budget if so
};

/// The attempt a rank body runs, as run_attempts hands it in.
struct Attempt {
  int number = 1;                 ///< 1-based
  std::uint64_t live_budget = 0;  ///< ooc_live_bytes to run with
};

/// Given the live budget of an attempt that ran out of memory, returns
/// the budget to retry with, or 0 to make the OOM final.
using OomHook = std::function<std::uint64_t(std::uint64_t live_budget)>;

/// One driver's part of the attempt loop.
struct AttemptLoop {
  std::string analyzer;  ///< check::Diagnostic::analyzer of its reports
  std::string counters;  ///< stats counter prefix
  /// Runs on every rank, once per attempt, after the rank's injector is
  /// bound and its clock advanced to the attempt's start.
  std::function<void(simmpi::Context&, const Attempt&)> body;
  OomHook on_oom;                 ///< empty: an OOM is final
  std::uint64_t live_budget = 0;  ///< live budget of attempt 1
};

/// Run `loop.body` on `nranks` ranks until an attempt succeeds or
/// `policy.max_attempts` is exhausted (then the last failure is
/// rethrown). When `plan` is non-null and non-empty, each rank thread
/// gets an inject::Injector bound for the attempt, with node topology
/// from `machine`.
RetryOutcome run_attempts(int nranks, const simtime::MachineProfile& machine,
                          pfs::FileSystem& fs, const AttemptLoop& loop,
                          const RetryPolicy& policy,
                          const inject::FaultPlan* plan = nullptr,
                          stats::Collector* collector = nullptr,
                          check::JobChecker* checker = nullptr);

/// The OOM degradation ladder as an attempt-loop hook: each OOM
/// restarts with the out-of-core spill on and the live-bytes budget
/// halved — from the attempt's budget, else this rank's share of node
/// memory — and records it in `out`. When half would drop below
/// `page` bytes, or policy.degrade_on_oom is off, the OOM is final.
OomHook oom_ladder(const RecoveryPolicy& policy,
                   const simtime::MachineProfile& machine,
                   std::uint64_t page, RecoveryOutcome& out);

/// The job to run under recovery. `map` must complete the Job's map
/// phase (map_text_files/map_kvs/map_custom); `finish` consumes the
/// mapped job (reduce or partial_reduce) and handles the output. Both
/// run on every rank and may be called several times (once per
/// attempt), so they must be idempotent with respect to captured state.
struct RecoveryJob {
  JobConfig config{};
  std::function<void(Job&)> map;
  std::function<void(Job&)> finish;
};

/// Run `jobspec` on `nranks` ranks with checkpoint-based retry, through
/// run_attempts (analyzer and counter prefix "recovery").
RecoveryOutcome run_with_recovery(int nranks,
                                  const simtime::MachineProfile& machine,
                                  pfs::FileSystem& fs,
                                  const RecoveryJob& jobspec,
                                  const RecoveryPolicy& policy = {},
                                  const inject::FaultPlan* plan = nullptr,
                                  stats::Collector* collector = nullptr,
                                  check::JobChecker* checker = nullptr);

}  // namespace mimir
