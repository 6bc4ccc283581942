// mimir-race: a vector-clock happens-before race detector for simulated
// ranks, plus a cross-run determinism checker.
//
// simmpi ranks are host threads, so user map/reduce callbacks that share
// state across ranks can race exactly like any threaded program — the
// dominant correctness hazard once a MapReduce framework opens up to
// real applications. TSan finds such races only when the host scheduler
// happens to interleave the conflicting accesses; mimir-race instead
// exploits the fact that simmpi owns every synchronization edge and
// checks the *discipline*: it maintains one vector clock per global
// rank, joined on
//
//   * barrier entry/exit and every collective rendezvous (all ranks of
//     the communicator join to the pairwise max, then tick),
//   * non-blocking collective initiate -> wait (every waiter joins the
//     clocks all initiators published at initiation),
//   * sched producer -> consumer container handoff (race_handoff_publish
//     / race_handoff_acquire keyed per (node, rank)),
//
// and verifies every access to *registered shared state* against the
// FastTrack epoch rule: a write must happen-after the previous write and
// every previous read; a read must happen-after the previous write.
// Violations are reported as check::Diagnostics naming BOTH access
// sites' rank, phase path, and simulated time — deterministically, on
// every run, regardless of host interleaving.
//
// Registered shared state comes from two sources:
//
//   * the annotation API below — wrap cross-rank shared variables in
//     check::Shared<T> (typed) or register a raw byte range as a
//     check::SharedRegion; accesses are checked only while a rank thread
//     of a race-checked job is bound (zero-cost passthrough otherwise);
//   * automatic registration of framework pages (KVContainer pages,
//     combine-table arenas, checkpoint buffers, sched handoff
//     containers) via the existing memtrack::AllocObserver hooks: page
//     alloc/release count as writes to the page region, so an
//     unsynchronized cross-rank page ownership transfer is itself a
//     reported race.
//
// The detector additionally folds every collective fingerprint a rank
// publishes into a per-rank, per-phase digest chain; determinism_digest
// snapshots it after a run and compare_digests names the first
// divergent (rank, phase) between two runs — turning "works on my
// machine" nondeterminism into a failing test.
//
// Enabling: CheckConfig{.race = true} on a JobChecker passed to
// simmpi::run, `mimir.race=1` on a bench/example command line, or
// MIMIR_RACE=1 in the environment. Like every mimir-check analyzer the
// detector is accounting-only: it never advances a simulated clock,
// never charges a tracker, and never aborts the job (races are
// diagnostics, not errors) — simulated results are bit-identical with
// the detector on or off, which the race equivalence tests enforce.
//
// See DESIGN.md "Memory model & race detection" for the happens-before
// argument this detector operationalizes.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/report.hpp"

namespace simtime {
class Clock;
}

namespace check {

struct CollectiveFingerprint;

/// One rank's logical time: component r counts rank r's synchronization
/// epochs. a.happens_before(b) iff a <= b pointwise.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(int nranks)
      : v_(static_cast<std::size_t>(nranks), 0) {}

  std::uint64_t operator[](int rank) const noexcept {
    return v_[static_cast<std::size_t>(rank)];
  }
  void tick(int rank) noexcept { ++v_[static_cast<std::size_t>(rank)]; }
  void join(std::span<const std::uint64_t> other) noexcept {
    for (std::size_t i = 0; i < v_.size() && i < other.size(); ++i) {
      if (other[i] > v_[i]) v_[i] = other[i];
    }
  }
  void join(const VectorClock& other) noexcept { join(other.v_); }
  std::span<const std::uint64_t> values() const noexcept { return v_; }
  std::vector<std::uint64_t> snapshot() const { return v_; }
  std::size_t size() const noexcept { return v_.size(); }

 private:
  std::vector<std::uint64_t> v_;
};

/// One recorded access to a registered region, kept for diagnostics.
struct AccessSite {
  int rank = -1;           ///< global rank, -1 = no access recorded
  std::uint64_t epoch = 0; ///< accessor's own clock component at access
  double sim_time = 0.0;
  std::string phase;       ///< accessor's phase path at access time
  bool write = false;
};

/// Per-rank, per-collective digest entry for the determinism checker.
struct DigestEntry {
  std::uint64_t hash = 0;  ///< chained fingerprint hash up to this entry
  std::string phase;       ///< publishing rank's phase path
};

/// Snapshot of one run's per-rank collective digests.
struct DeterminismDigest {
  std::vector<std::vector<DigestEntry>> ranks;

  bool empty() const noexcept { return ranks.empty(); }
  /// One value summarizing the whole run (order-sensitive).
  std::uint64_t combined() const noexcept;
};

/// First point where two runs' digests diverge.
struct Divergence {
  int rank = -1;
  std::size_t index = 0;   ///< collective index on that rank
  std::string phase;       ///< phase path at (or nearest before) the split
  std::string detail;      ///< human-readable what-differed
};

/// The happens-before engine. One per JobChecker (when CheckConfig.race
/// is set); reset per job by simmpi::run. All methods are thread-safe —
/// rank threads serialize on an internal mutex, which is fine because
/// the detector is off the simulated-cost path entirely.
class RaceDetector {
 public:
  /// Diagnostics go to `report` (analyzer "race"); at most
  /// `max_region_reports` races are reported per region.
  explicit RaceDetector(Report& report, int max_region_reports = 4);

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  /// Drop all per-job state and size clocks for `nranks` global ranks.
  void reset(int nranks);

  // -- happens-before edges (called from simmpi / sched) -----------------

  /// Collective rendezvous: join every participant's clock to the
  /// pairwise max, then tick each. Called by the communicator's rank 0
  /// between the entry barrier and the verification fence, while every
  /// other participant is blocked in the fence.
  void collective_sync(std::span<const int> global_ranks);

  /// Producer-side handoff edge: publish `global_rank`'s clock under
  /// `key` (joining any previous publication) and tick.
  void handoff_publish(int global_rank, std::uint64_t key);

  /// Consumer-side handoff edge: join the clock published under `key`.
  void handoff_acquire(int global_rank, std::uint64_t key);

  // -- non-blocking collective buffer freeze -------------------------------

  /// Freeze the registered region at `base` for the duration of an
  /// in-flight non-blocking collective named `what`: until nb_complete,
  /// every write to the region — and every read when `op_writes` is set
  /// (a receive buffer the operation will fill) — is reported as
  /// "write-after-initiate"/"read-after-initiate". This catches the one
  /// hazard the epoch rule cannot: a rank touching its *own* in-flight
  /// buffer, where program order trivially satisfies happens-before but
  /// the buffer belongs to the collective until Request::wait returns.
  /// The initiation itself counts as a read of a send buffer (the
  /// operation captures its contents). Unregistered bases are ignored.
  void nb_initiate(const void* base, int global_rank, bool op_writes,
                   std::string_view what, double sim_time,
                   std::string phase);

  /// Thaw the region at `base` and record the completion access (a
  /// write for op-written regions, a read otherwise) on the waiting
  /// rank — the join point of the initiate -> wait happens-before edge.
  void nb_complete(const void* base, int global_rank, double sim_time,
                   std::string phase);

  // -- registered shared state -------------------------------------------

  /// Register [base, base+bytes) as shared state named `name`.
  /// Re-registering the same base replaces the region (fresh state).
  void region_register(const void* base, std::uint64_t bytes,
                       std::string name);

  /// Forget a region (e.g. the page was released). No-op when unknown.
  void region_unregister(const void* base);

  /// Check one access by `global_rank` to the region at `base` against
  /// the FastTrack epoch rule; races are reported, never thrown.
  /// Unregistered bases are ignored.
  void access(const void* base, int global_rank, bool write,
              double sim_time, std::string phase);

  /// The lazy-registration path used by SharedRegion: register the
  /// region if this job has not seen it yet, then check the access.
  void ensure_and_access(const void* base, std::uint64_t bytes,
                         std::string_view name, int global_rank, bool write,
                         double sim_time, std::string phase);

  /// Page lifecycle events (forwarded by the lifecycle auditor): alloc
  /// registers the page region afresh and counts as a write; release
  /// counts as a write and unregisters, so an unsynchronized cross-rank
  /// page ownership transfer is itself a race.
  void page_alloc(int global_rank, const void* block, std::uint64_t bytes,
                  std::string_view tag, double sim_time, std::string phase);
  void page_release(int global_rank, const void* block, double sim_time,
                    std::string phase);

  // -- determinism digest -------------------------------------------------

  /// Fold `fp` into `global_rank`'s digest chain; `npeers` is the
  /// communicator size (length of any alltoallv count arrays). Called
  /// from the collective announce path; each rank only ever touches its
  /// own chain, so this takes no lock.
  void record_fingerprint(int global_rank, const CollectiveFingerprint& fp,
                          int npeers);

  /// Snapshot the per-rank digests accumulated since the last reset.
  DeterminismDigest digest() const;

  /// Number of race diagnostics reported since the last reset.
  std::size_t races() const;

 private:
  struct RegionState {
    std::string name;
    std::uint64_t bytes = 0;
    AccessSite last_write;
    std::vector<AccessSite> reads;  ///< per-rank last read
    int reports = 0;
    /// Non-blocking freeze window (nb_initiate .. nb_complete).
    bool frozen = false;
    bool frozen_op_writes = false;
    std::string frozen_what;
    AccessSite frozen_site;  ///< the initiator, for diagnostics
  };

  /// Phase/sim-time for an access on the calling rank thread.
  void report_race(RegionState& region, const AccessSite& previous,
                   const AccessSite& current);
  void report_frozen(RegionState& region, const AccessSite& current);
  bool ordered_before(const AccessSite& site,
                      const VectorClock& clock) const noexcept;

  Report* report_;
  const int max_region_reports_;

  mutable std::mutex mutex_;
  int nranks_ = 0;
  std::vector<VectorClock> clocks_;
  std::map<const void*, RegionState> regions_;
  std::map<std::uint64_t, VectorClock> handoffs_;
  std::size_t races_ = 0;

  // Determinism digests: outer vector sized at reset, inner vectors
  // owned exclusively by their rank's thread (same discipline as the
  // simmpi slot table).
  std::vector<std::vector<DigestEntry>> digests_;
};

// --- rank-thread binding ---------------------------------------------------

/// RAII binding of the calling rank thread to a job's race detector.
/// Installed by simmpi::run next to the lifecycle auditor; Shared<T>,
/// SharedRegion, and the sched handoff helpers resolve the detector,
/// global rank, and simulated clock through it.
class ScopedRaceRank {
 public:
  ScopedRaceRank(RaceDetector* detector, int global_rank,
                 const simtime::Clock* clock) noexcept;
  ~ScopedRaceRank();

  ScopedRaceRank(const ScopedRaceRank&) = delete;
  ScopedRaceRank& operator=(const ScopedRaceRank&) = delete;

 private:
  RaceDetector* previous_detector_;
  int previous_rank_;
  const simtime::Clock* previous_clock_;
};

/// The calling thread's bound detector, or nullptr outside a
/// race-checked job.
RaceDetector* current_race_detector() noexcept;

/// Note one access to registered shared state at `base` on the calling
/// rank thread. No-op without a binding.
void race_note_access(const void* base, bool write);

/// sched handoff edges on the calling rank thread (no-ops unbound).
void race_handoff_publish(std::uint64_t key);
void race_handoff_acquire(std::uint64_t key);

/// Freeze / thaw a registered region around an asynchronous operation
/// the calling rank initiated (e.g. a PFS read-ahead into `base`):
/// between initiate and complete, any same-rank touch of the region is
/// a reported race (write-after-initiate / read-after-initiate when
/// the op itself writes the buffer). No-ops unbound; unregistered
/// bases are ignored.
void race_nb_initiate(const void* base, bool op_writes,
                      std::string_view what);
void race_nb_complete(const void* base);

/// Page lifecycle forwarding on the calling rank thread (no-ops
/// unbound); the region name comes from the active memtrack tag.
void race_page_alloc(const void* block, std::uint64_t bytes);
void race_page_release(const void* block);

// --- annotation API --------------------------------------------------------

/// A raw byte range registered as shared state for the duration of the
/// object. Registration happens lazily per job (regions are cleared on
/// detector reset), so a SharedRegion may outlive many jobs.
class SharedRegion {
 public:
  SharedRegion(std::string name, const void* base,
               std::uint64_t bytes) noexcept
      : name_(std::move(name)), base_(base), bytes_(bytes) {}
  ~SharedRegion();

  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  void note_read() const { note(false); }
  void note_write() const { note(true); }
  const void* base() const noexcept { return base_; }

 private:
  void note(bool write) const;

  std::string name_;
  const void* base_;
  std::uint64_t bytes_;
};

/// Typed cross-rank shared variable. Every access goes through a
/// checked accessor; with no race-checked job bound the accessors are
/// plain reads/writes. Writes store under a host mutex, so two ranks
/// that write without a simmpi edge between them race only in the
/// simulation: the detector reports it, and the C++ stays free of data
/// races. The mutex is not a simmpi edge — Shared<T> detects missing
/// happens-before edges, it does not add any. Reads take no lock; a
/// read that no simmpi edge orders after a write is a race the
/// detector reports and the caller must fix.
template <typename T>
class Shared {
 public:
  explicit Shared(std::string name, T value = T{})
      : region_(std::move(name), &value_, sizeof(T)),
        value_(std::move(value)) {}

  /// Checked read.
  const T& read() const {
    region_.note_read();
    return value_;
  }

  /// Checked write.
  void write(T value) {
    region_.note_write();
    const std::lock_guard<std::mutex> lock(write_mutex_);
    value_ = std::move(value);
  }

  /// Checked read-modify-write.
  template <typename Fn>
  void update(Fn&& fn) {
    region_.note_write();
    const std::lock_guard<std::mutex> lock(write_mutex_);
    fn(value_);
  }

  /// Unchecked escape hatch for access outside any job (e.g. reading
  /// the result from the driver after simmpi::run returned).
  T& unchecked() noexcept { return value_; }
  const T& unchecked() const noexcept { return value_; }

 private:
  SharedRegion region_;
  std::mutex write_mutex_;
  T value_;
};

// --- cross-run determinism checker ----------------------------------------

class JobChecker;

/// Snapshot the collective digests of `checker`'s last race-checked
/// job. Empty when the checker has no race detector.
DeterminismDigest determinism_digest(const JobChecker& checker);

/// Compare two runs' digests; returns the first divergent (rank, phase)
/// or nullopt when the runs are indistinguishable.
std::optional<Divergence> compare_digests(const DeterminismDigest& a,
                                          const DeterminismDigest& b);

/// True when MIMIR_RACE is set to 1/true/yes/on in the environment.
bool race_env_enabled();

}  // namespace check
