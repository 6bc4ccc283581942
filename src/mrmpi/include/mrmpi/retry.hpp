// Minimal fault handling for the MR-MPI baseline: restart from scratch.
//
// MR-MPI has no checkpoint/resume machinery — when a rank dies, the only
// recovery the model admits is re-submitting the whole job. This module
// reproduces exactly that (and nothing more), so the recovery benchmarks
// can report the overhead of Mimir's checkpoint-based resume against the
// honest baseline cost: every retry pays the full job again plus the
// scheduler's backoff, and nothing is salvaged from the failed attempt.
//
// run_with_retry is a body on mimir::run_attempts (mimir/recovery.hpp),
// the attempt loop Mimir's recovery runs on too, so both frameworks
// retry under the same rules. It passes no OOM hook: MR-MPI's answer to
// memory pressure is its out-of-core spill mode, not a degradation
// ladder, so a job that OOMs once would OOM on every retry.
#pragma once

#include <functional>

#include "mimir/recovery.hpp"
#include "simmpi/runtime.hpp"

namespace mrmpi {

using RetryPolicy = mimir::RetryPolicy;
using RetryOutcome = mimir::RetryOutcome;

/// The whole MR-MPI job, re-run verbatim on every attempt. Must be
/// restartable: rank-local state it builds is recreated from scratch.
using RetryBody = std::function<void(simmpi::Context&)>;

/// Run `body` on `nranks` ranks, restarting the whole job until it
/// completes or `policy.max_attempts` is exhausted (analyzer
/// "mrmpi-retry", counter prefix "mrmpi.retry").
RetryOutcome run_with_retry(int nranks,
                            const simtime::MachineProfile& machine,
                            pfs::FileSystem& fs, const RetryBody& body,
                            const RetryPolicy& policy = {},
                            const inject::FaultPlan* fault_plan = nullptr,
                            stats::Collector* collector = nullptr,
                            check::JobChecker* checker = nullptr);

}  // namespace mrmpi
