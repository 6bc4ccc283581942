#include "mrmpi/retry.hpp"

#include "mutil/error.hpp"

namespace mrmpi {

RetryOutcome run_with_retry(int nranks,
                            const simtime::MachineProfile& machine,
                            pfs::FileSystem& fs, const RetryBody& body,
                            const RetryPolicy& policy,
                            const inject::FaultPlan* fault_plan,
                            stats::Collector* collector,
                            check::JobChecker* checker) {
  if (!body) {
    throw mutil::UsageError("run_with_retry: body is required");
  }
  mimir::AttemptLoop loop;
  loop.analyzer = "mrmpi-retry";
  loop.counters = "mrmpi.retry";
  loop.body = [&body](simmpi::Context& ctx, const mimir::Attempt&) {
    body(ctx);
  };
  return mimir::run_attempts(nranks, machine, fs, loop, policy, fault_plan,
                             collector, checker);
}

}  // namespace mrmpi
