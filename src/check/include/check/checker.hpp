// mimir-check: opt-in correctness analyzers for simmpi jobs.
//
// Mimir's whole design rides on MPI collective semantics: the
// interleaved map+aggregate loop is only correct if every rank enters
// the same collective sequence with consistent counts, and the paper's
// memory claims depend on KV/KMV pages being released exactly when the
// container lifecycle says they are. Because simmpi owns every rank
// thread and every collective rendezvous, these properties can be
// verified in-process instead of bolted on (cf. MUST for real MPI).
//
// Three analyzers, all reporting structured Diagnostics to one
// check::Report (see report.hpp):
//
//   * collective-matching verifier — every collective entry publishes a
//     CollectiveFingerprint (op kind, per-rank sequence number, element
//     width, root, per-peer counts) into the epoch-fenced slot area;
//     rank 0 of the communicator compares them after the entry barrier
//     and names the divergent ranks, including the classic alltoallv
//     "rank i's sendcounts[j] != rank j's recvcounts[i]" mismatch.
//   * progress watchdog — rank threads publish their blocked state
//     (collective name / recv peer, simulated time, phase stack); a
//     real-time watchdog thread flags a deadlock when every rank is
//     blocked or finished and nothing changed across consecutive
//     samples, reports the wait-for graph, and aborts the job.
//   * lifecycle auditor — a memtrack::AllocObserver tagging every
//     container page with the phase that allocated it; at phase
//     boundaries the charge balance is audited against the rank's
//     Tracker, and at job end still-live pages are reported as leaks.
//
// Enabling: pass a JobChecker* to simmpi::run, or set MIMIR_CHECK=1 in
// the environment / mimir.check=1 on a bench command line to route every
// job through the process-global checker (global_checker()).
//
// Guarantee: the analyzers are read-only with respect to the simulation.
// They never advance a simulated clock and never charge a tracker, so
// results are bit-identical with the checker on or off (covered by the
// checker equivalence test).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/report.hpp"
#include "memtrack/tracker.hpp"

namespace mutil {
class Config;
}

namespace check {

class RaceDetector;

/// Analyzer tuning; all times are real (wall-clock) milliseconds — the
/// watchdog watches host threads, not simulated time.
struct CheckConfig {
  /// Real time between watchdog progress samples.
  int watchdog_interval_ms = 200;
  /// Consecutive unchanged samples before a deadlock verdict.
  int watchdog_stalls = 2;
  /// Cap on reported alltoallv pairwise mismatches per collective.
  int max_pairwise_reports = 8;
  /// Run the mimir-race happens-before detector (see race.hpp).
  bool race = false;
  /// Cap on reported races per shared region.
  int max_region_reports = 4;

  /// Read mimir.check.* keys (watchdog_ms, stalls) and mimir.race.
  static CheckConfig from(const mutil::Config& cfg);
};

/// True when MIMIR_CHECK is set to 1/true/yes/on in the environment.
bool env_enabled();

// --- collective-matching verifier ---------------------------------------

enum class CollectiveOp : std::uint32_t {
  kNone = 0,
  kBarrier,
  kAlltoallv,
  kAlltoallU64,
  kAllreduceU64,
  kAllreduceF64,
  kAllgatherU64,
  kBcast,
  kBcastU64,
  kGatherv,
  kSplit,
  // Non-blocking collectives match on initiation order, not on the
  // shared-slot rendezvous, so they carry their own op kinds: the
  // kAlltoallv pairwise audit must not fire for them (an ialltoallv
  // fingerprint has no recv counts — they are discovered at completion).
  kIalltoallv,
  kIallreduceU64,
};

const char* to_string(CollectiveOp op) noexcept;

/// What one rank published on entering a collective. Written by its
/// owner rank before the entry barrier, read by the verifying rank
/// between the entry and exit barriers (same happens-before discipline
/// as the simmpi slot table). The counts pointers borrow the caller's
/// alltoallv count arrays, which stay alive until the exit barrier.
struct CollectiveFingerprint {
  CollectiveOp op = CollectiveOp::kNone;
  std::uint64_t seq = 0;   ///< per-rank collective sequence number
  std::uint32_t width = 0; ///< element width in bytes (1 for byte ops)
  std::uint32_t extra = 0; ///< op-specific (e.g. reduction operator)
  std::int32_t root = -1;  ///< root rank for rooted ops, -1 otherwise
  std::uint64_t bytes = 0; ///< payload size for size-checked ops (bcast)
  const std::uint64_t* send_counts = nullptr;  ///< alltoallv only
  const std::uint64_t* recv_counts = nullptr;  ///< alltoallv only
  double sim_time = 0.0;
  std::string phase{};     ///< publishing rank's phase path
};

// --- progress watchdog ----------------------------------------------------

/// One rank's published wait state.
struct BlockedState {
  enum class Kind { kNone, kCollective, kFinished };
  Kind kind = Kind::kNone;
  std::uint64_t id = 0;    ///< fresh per state change; watchdog compares
  std::string what;        ///< collective name ("<op>.wait" for a Request)
  /// Collective sequence number; a Request wait carries its op key.
  std::uint64_t seq = 0;
  double sim_time = 0.0;
  std::string phase;       ///< phase path captured at block time
  /// The wait was satisfied but the rank has not left it yet (see
  /// JobChecker::mark_released); the watchdog counts the rank as running.
  bool released = false;
};

// --- lifecycle auditor ----------------------------------------------------

/// Per-rank page/charge auditor. Owned by a JobChecker and bound to the
/// rank thread as its memtrack::AllocObserver; all mutation happens on
/// that thread. Storage is plain heap — the auditor never charges the
/// tracker it audits.
class LifecycleAuditor final : public memtrack::AllocObserver {
 public:
  LifecycleAuditor(Report& report, int rank);

  void on_page_alloc(const void* block, std::uint64_t bytes) override;
  void on_page_release(const void* block, std::uint64_t bytes) override;
  void on_charge(std::uint64_t bytes) override;
  void on_release(std::uint64_t bytes) override;

  /// Phase-boundary audit: the observed charge balance must equal the
  /// tracker's live bytes (they are mirrored operation by operation, so
  /// divergence means bytes were charged or released outside the
  /// observed window — a lifecycle bug).
  void audit(const memtrack::Tracker& tracker, std::string_view where);

  /// Job-end audit: reports every still-live page as a leak (tagged
  /// with the phase that allocated it) and any residual charge balance.
  void final_audit(const memtrack::Tracker& tracker);

  std::size_t live_pages() const noexcept { return live_.size(); }

 private:
  struct PageInfo {
    std::uint64_t bytes = 0;
    std::string phase;
  };

  std::string current_phase() const;

  Report* report_;
  int rank_;
  std::map<const void*, PageInfo> live_;
  std::uint64_t live_bytes_ = 0;
  std::int64_t balance_ = 0;     ///< charges minus releases
  bool underflow_reported_ = false;
};

// --- job checker ----------------------------------------------------------

/// All analyzer state for one (or a sequence of) simmpi jobs.
/// simmpi::run resets it per job, starts/stops the watchdog, and binds
/// one LifecycleAuditor per rank thread. Diagnostics accumulate in the
/// Report across jobs until Report::clear().
class JobChecker {
 public:
  /// Diagnostics go to `report`; `report` must outlive the checker.
  explicit JobChecker(Report& report, CheckConfig cfg = {});
  ~JobChecker();

  JobChecker(const JobChecker&) = delete;
  JobChecker& operator=(const JobChecker&) = delete;

  Report& report() noexcept { return *report_; }
  const CheckConfig& config() const noexcept { return cfg_; }

  /// Discard per-job analyzer state and size tables for `nranks` global
  /// ranks. Called by simmpi::run before rank threads start.
  void reset(int nranks);

  // -- collective verifier (called from simmpi::Communicator) ------------

  /// Full fingerprint comparison across one communicator's ranks;
  /// called by the communicator's rank 0 between the entry and exit
  /// barriers. `global_ranks[i]` names slot i for diagnostics. Adds
  /// diagnostics and throws mutil::CommError on a mismatch.
  void verify_collective(std::span<const CollectiveFingerprint> fps,
                         std::span<const int> global_ranks);

  /// Record a locally-detected communication error (e.g. out-of-bounds
  /// alltoallv regions) before the caller throws.
  void local_error(int global_rank, std::string_view code,
                   std::string_view message, double sim_time);

  // -- progress watchdog --------------------------------------------------

  /// Publish that `global_rank` is entering a potentially-blocking wait;
  /// returns the previous state for BlockGuard-style nesting.
  BlockedState block_enter(int global_rank, std::string what,
                           std::uint64_t seq, double sim_time);
  /// Restore the pre-enter state (with a fresh change id).
  void block_exit(int global_rank, BlockedState previous);
  /// Called by the rank that releases a wait, before the waiters can
  /// observe the release: marks each of `global_ranks` that is blocked
  /// (in `what` #`seq`, when `what` is given) as released. A loaded host
  /// may not run a released waiter for a while; until its block_exit the
  /// watchdog counts it as running, not as stalled.
  void mark_released(std::span<const int> global_ranks,
                     std::string_view what = {}, std::uint64_t seq = 0);
  /// Mark a rank as done communicating (its thread is about to exit).
  void rank_finished(int global_rank);

  /// Start the watchdog thread; `abort_job` is invoked (once, from the
  /// watchdog thread) with a description when a deadlock is detected.
  void start_watchdog(std::function<void(const std::string&)> abort_job);
  void stop_watchdog();

  // -- lifecycle auditor --------------------------------------------------

  LifecycleAuditor& auditor(int global_rank);

  // -- mimir-race ---------------------------------------------------------

  /// The happens-before race detector, or nullptr when CheckConfig.race
  /// is off. Reset per job alongside the other analyzers.
  RaceDetector* race() const noexcept { return race_.get(); }

 private:
  void watchdog_loop();
  /// Build the deadlock diagnostic from a blocked-state snapshot.
  std::string report_deadlock(const std::vector<BlockedState>& snapshot);

  Report* report_;
  CheckConfig cfg_;
  int nranks_ = 0;

  std::mutex block_mutex_;
  std::vector<BlockedState> blocked_;
  std::uint64_t block_counter_ = 0;

  std::vector<std::unique_ptr<LifecycleAuditor>> auditors_;
  std::unique_ptr<RaceDetector> race_;

  std::thread watchdog_;
  std::mutex wd_mutex_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  std::function<void(const std::string&)> abort_job_;
};

/// RAII blocked-state publication around a blocking primitive. No-op
/// when `checker` is null.
class BlockGuard {
 public:
  BlockGuard(JobChecker* checker, int global_rank, const char* what,
             std::uint64_t seq, double sim_time)
      : checker_(checker), rank_(global_rank) {
    if (checker_ != nullptr) {
      previous_ = checker_->block_enter(rank_, what, seq, sim_time);
    }
  }
  ~BlockGuard() {
    if (checker_ != nullptr) {
      checker_->block_exit(rank_, std::move(previous_));
    }
  }

  BlockGuard(const BlockGuard&) = delete;
  BlockGuard& operator=(const BlockGuard&) = delete;

 private:
  JobChecker* checker_;
  int rank_;
  BlockedState previous_;
};

// --- process-global checker ----------------------------------------------

/// Report backing the process-global checker.
Report& global_report();

/// The process-global checker when enabled (MIMIR_CHECK env or
/// enable_global()), else nullptr. simmpi::run falls back to this when
/// no explicit checker is passed. Intended for sequential drivers
/// (benches, examples): one job at a time.
JobChecker* global_checker();

/// Turn the process-global checker on programmatically (mimir.check=1
/// on a bench command line).
void enable_global(CheckConfig cfg = {});

/// Phase-boundary audit hook for framework code: audits the calling
/// thread's LifecycleAuditor (if one is bound) against `tracker`.
/// No-op outside a checked job.
void audit_point(const memtrack::Tracker& tracker, std::string_view where);

/// The calling thread's auditor, or nullptr (bound by simmpi::run).
LifecycleAuditor* current_auditor() noexcept;

/// RAII binding of a rank thread's auditor: binds both the check-local
/// thread pointer and the memtrack::AllocObserver.
class ScopedAudit {
 public:
  explicit ScopedAudit(LifecycleAuditor* auditor) noexcept;
  ~ScopedAudit();

  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;

 private:
  LifecycleAuditor* previous_;
  memtrack::ScopedAllocObserver observer_;
};

}  // namespace check
