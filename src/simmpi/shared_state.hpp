// Internal shared state for a simmpi job: the collective rendezvous slot
// table, the global barrier, the in-flight non-blocking ops, and the
// abort channel. Private to the simmpi library.
//
// Why the slot table is race-free: every collective is bracketed by
// barrier_wait() calls on the shared generation barrier, so every
// pre-entry-barrier slot write happens-before every post-entry-barrier
// slot read, and no rank writes its slot again until after the exit
// barrier. An arrival is one acq_rel fetch_add on `arrivals`; those
// read-modify-writes form a release sequence, so the last arrival's
// fetch_add acquires every earlier arrival's prior writes. It then
// stores the next `generation` with release semantics while holding
// the mutex. A waiter leaves either through an acquire load of
// `generation` while spinning in wait_released(), or through the mutex
// it re-acquires in cv.wait after parking; either edge orders every
// arrival's prior writes before the waiter's reads. The full
// happens-before argument — and the race detector (mimir-race) that
// checks user code against the same discipline — lives in DESIGN.md,
// "Memory model & race detection".
// The mimir-check fingerprints (check_fps) follow the slot discipline:
// written by the owner before the entry barrier, read by the
// communicator's rank 0 between the entry barrier and the verification
// fence barrier, never touched again until after the exit barrier.
#pragma once

#include <atomic>
#include <bit>
#include <condition_variable>
#include <map>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "mutil/error.hpp"

namespace simmpi::detail {

/// Per-rank publication slot used by collectives. Written by its owner
/// before the entry barrier, read by everyone between the entry and exit
/// barriers. Cache-line aligned to avoid false sharing on the hot path.
struct alignas(64) Slot {
  const std::byte* send = nullptr;
  const std::uint64_t* counts = nullptr;
  const std::uint64_t* displs = nullptr;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  double clock = 0.0;
  std::uint64_t bytes = 0;
};

/// One in-flight non-blocking collective (ialltoallv / iallreduce_u64).
/// Keyed by the per-rank initiation counter: non-blocking collectives
/// are collective in *initiation order*, so every rank's Nth initiate
/// joins op N. Guarded by SharedState::mutex; completion (the last
/// initiator copies all data while holding the lock, then stores
/// `complete` with release semantics) releases the waiters through
/// SharedState::wait_released. Count/displacement arrays are copied in
/// at initiate because the caller's vectors may die before the op
/// completes.
struct NbOp {
  /// One rank's published arguments.
  struct Part {
    const std::byte* send = nullptr;
    std::byte* recv = nullptr;
    std::uint64_t recv_cap = 0;
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> displs;
    std::uint64_t u64 = 0;
    double clock = 0.0;  ///< initiator's sim time at initiate
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };

  /// kIalltoallv or kIallreduceU64, set by the first initiator.
  check::CollectiveOp kind = check::CollectiveOp::kNone;
  std::uint32_t red_op = 0;  ///< reduction operator (iallreduce)
  int arrived = 0;           ///< initiations so far
  int waited = 0;            ///< completed waits; erase at nranks
  /// Set once, under SharedState::mutex, after every result is in
  /// place; a spinning waiter reads it without the lock.
  std::atomic<bool> complete{false};
  /// A rank dropped its Request before completion: its buffers may be
  /// gone, so the op never completes (peers unwind on the job abort).
  bool withdrawn = false;
  double t_all = 0.0;        ///< max initiation clock across ranks
  std::uint64_t reduced = 0; ///< iallreduce result
  /// Receive totals are *discovered* at completion (Part::received) —
  /// ialltoallv takes no recv-count argument, which is what lets the
  /// overlapped shuffle skip the blocking alltoall_u64 count
  /// pre-exchange.
  std::vector<Part> parts;
  /// Per-op fingerprint storage: the shared check_fps slots may be
  /// overwritten by a later blocking collective before this op's last
  /// initiator verifies, so non-blocking ops keep their own copies.
  std::vector<check::CollectiveFingerprint> fps;
};

struct SharedState {
  SharedState(int num_ranks, double latency, double bandwidth)
      : nranks(num_ranks),
        net_latency(latency),
        net_bandwidth(bandwidth),
        slots(static_cast<std::size_t>(num_ranks)),
        check_fps(static_cast<std::size_t>(num_ranks)),
        check_ranks(static_cast<std::size_t>(num_ranks)) {
    for (int r = 0; r < num_ranks; ++r) {
      check_ranks[static_cast<std::size_t>(r)] = r;
    }
  }

  const int nranks;
  const double net_latency;
  const double net_bandwidth;

  /// Iterations a waiter spins before it parks on `cv`, and how often
  /// it yields its CPU while spinning. A barrier round on 2–8 ranks
  /// mostly completes within the budget, so the waiter leaves without a
  /// futex sleep and wake-up; an oversubscribed host still gets the CPU
  /// back at every yield and parks waiters whose peers cannot run.
  static constexpr int kSpinIterations = 4096;
  static constexpr int kSpinYieldEvery = 64;

  // Global generation barrier. An arrival takes the next ticket from
  // `arrivals` without the mutex; ticket t belongs to barrier round
  // t / nranks, and the round's last ticket releases it. `generation`
  // (rounds released) and `aborted` change only while holding `mutex`;
  // they are atomic so a spinning waiter can watch them without it.
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> aborted{false};
  // When the abort cause was a rank death (mutil::RankFailedError),
  // peers unwinding out of collectives and waits rethrow a
  // RankFailedError naming the dead rank instead of a generic
  // CommError, so job-level recovery can classify the failure. Guarded
  // by `mutex` with `aborted`.
  int failed_rank = -1;
  double failed_time = 0.0;

  // First exception wins; the rest are dropped.
  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<Slot> slots;

  // In-flight non-blocking collectives, keyed by initiation count.
  // Guarded by `mutex`; waiters block in wait_released() like barrier
  // waiters, so a rank blocked in Request::wait unwinds on job abort
  // too. A withdrawn op leaves its entry here until the job's
  // SharedState dies.
  std::map<std::uint64_t, NbOp> nb_ops;

  // mimir-check hooks. `checker` is null when checking is off (the
  // common case); set once by simmpi::run before rank threads start, or
  // inherited from the parent by split() children. `check_fps` follows
  // the slot-table happens-before discipline above; `check_ranks[i]` is
  // the job-global rank of this communicator's rank i, so diagnostics
  // from split sub-communicators name the real ranks.
  check::JobChecker* checker = nullptr;
  std::vector<check::CollectiveFingerprint> check_fps;
  std::vector<int> check_ranks;

  // Rendezvous area for split(): group leaders publish the new group's
  // state here between two barriers.
  std::mutex split_mutex;
  std::map<int, std::shared_ptr<SharedState>> split_groups;

  // Children created by split(): an abort cascades into them so ranks
  // blocked in sub-communicator collectives unwind as well.
  std::mutex children_mutex;
  std::vector<std::weak_ptr<SharedState>> children;

  /// Number of rounds of a log-tree collective.
  int rounds() const noexcept {
    return nranks <= 1 ? 0
                       : std::bit_width(
                             static_cast<unsigned>(nranks - 1));
  }

  /// Latency charge for one collective.
  double collective_latency() const noexcept {
    return net_latency * rounds();
  }

  /// Throw the abort error for a peer rank: a RankFailedError naming
  /// the dead rank when the abort cause was a rank death, else a
  /// generic CommError. Caller must hold `mutex`.
  [[noreturn]] void throw_aborted_locked() const {
    if (failed_rank >= 0) {
      throw mutil::RankFailedError(
          "simmpi: job aborted: rank " + std::to_string(failed_rank) +
              " failed",
          failed_rank, failed_time);
    }
    throw mutil::CommError("simmpi: job aborted");
  }

  /// The one place a rank thread blocks (barrier_wait and
  /// Request::wait): returns once `released()` holds, or throws the
  /// abort error when the job aborts first. `released` acquire-loads an
  /// atomic that its releaser stores with release semantics while
  /// holding `mutex`, then wakes `cv`. The waiter checks `released` on
  /// entry and then spins for kSpinIterations more checks, yielding
  /// every kSpinYieldEvery, all without the lock; then it parks on `cv`
  /// and re-checks `released` under the lock. Enter and leave without
  /// holding `mutex`.
  template <typename Released>
  void wait_released(const Released& released) {
    for (int i = 0; i <= kSpinIterations; ++i) {
      if (released()) return;
      if (aborted.load(std::memory_order_relaxed)) break;
      if (i != 0 && i % kSpinYieldEvery == 0) std::this_thread::yield();
    }
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return released() || aborted; });
    if (!released()) throw_aborted_locked();
  }

  /// Enter the global barrier; throws once aborted (RankFailedError
  /// when a peer died, CommError otherwise). Arriving takes no lock:
  /// the mutex is taken only to publish a release, to park, or to read
  /// the abort cause.
  void barrier_wait() {
    if (aborted) {
      const std::scoped_lock lock(mutex);
      throw_aborted_locked();
    }
    const auto n = static_cast<std::uint64_t>(nranks);
    const std::uint64_t ticket =
        arrivals.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t gen = ticket / n;
    if (ticket % n == n - 1) {
      const std::scoped_lock lock(mutex);
      // Every rank of this communicator waits in this barrier; mark
      // them before the store lets any of them leave it.
      if (checker != nullptr) checker->mark_released(check_ranks);
      generation.store(gen + 1, std::memory_order_release);
      cv.notify_all();
    } else {
      wait_released([&] {
        return generation.load(std::memory_order_acquire) != gen;
      });
    }
  }

  /// Record the first error, mark the job aborted, wake every waiter.
  void abort(std::exception_ptr error) {
    bool first = false;
    {
      const std::scoped_lock lock(error_mutex);
      if (!first_error) {
        first_error = error;
        first = true;
      }
    }
    // Classify a rank death so blocked peers rethrow it by name. Only
    // the winning (first) error decides, keeping the verdict stable.
    int dead_rank = -1;
    double dead_time = 0.0;
    if (first) {
      try {
        std::rethrow_exception(error);
      } catch (const mutil::RankFailedError& e) {
        dead_rank = e.rank();
        dead_time = e.sim_time();
      } catch (...) {
      }
    }
    {
      const std::scoped_lock lock(mutex);
      aborted = true;
      if (first && dead_rank >= 0) {
        failed_rank = dead_rank;
        failed_time = dead_time;
      }
    }
    cv.notify_all();
    std::vector<std::shared_ptr<SharedState>> kids;
    {
      const std::scoped_lock lock(children_mutex);
      for (auto& weak : children) {
        if (auto kid = weak.lock()) kids.push_back(std::move(kid));
      }
    }
    for (auto& kid : kids) kid->abort(error);
  }
};

}  // namespace simmpi::detail
