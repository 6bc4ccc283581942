// simmpi: an MPI-subset message-passing substrate with ranks as threads.
//
// The paper's frameworks are written against MPI semantics — collective
// completion, byte-counted Alltoallv, reductions, barriers — not against
// any particular interconnect. This library provides exactly those
// semantics inside one process: every rank is a std::thread, blocking
// collectives rendezvous through a shared epoch-fenced slot table, and
// each one charges an alpha-beta cost model to the rank's simulated
// clock (synchronizing clocks to the slowest participant, which is how
// data skew becomes time skew).
//
// Error handling: if any rank throws, the job aborts; ranks blocked in
// collectives or Request::wait() wake up with mutil::CommError and
// unwind. The first exception is rethrown from simmpi::run().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simtime/clock.hpp"

namespace check {
enum class CollectiveOp : std::uint32_t;
struct CollectiveFingerprint;
}

namespace simmpi {

namespace detail {
struct SharedState;
}

/// Reduction operators for allreduce.
enum class Op { kSum, kMax, kMin, kLor, kLand };

/// Result of a gatherv: concatenated payloads plus per-rank byte counts.
/// Only the root rank receives data; other ranks get empty vectors.
struct GatherResult {
  std::vector<std::byte> data;
  std::vector<std::uint64_t> counts;
};

/// Per-rank communication statistics.
struct CommStats {
  std::uint64_t bytes_sent = 0;      ///< collective payload out
  std::uint64_t bytes_received = 0;  ///< collective payload in
};

class Communicator;

/// Handle for an in-flight non-blocking collective (ialltoallv /
/// iallreduce_u64). Move-only; owned by the initiating rank thread.
/// The buffers passed at initiation belong to the operation until
/// wait() returns — the race detector reports any touch in between.
/// Dropping an un-waited Request (destroying it, or move-assigning
/// over it) withdraws this rank: an operation that has not completed
/// never will, so no peer copies out of or into this rank's buffers
/// once they die, and peers blocked in wait() unwind when the job
/// aborts. Only a rank unwinding an exception may do that; a drop with
/// no exception in flight is a caller bug and aborts the job with
/// mutil::UsageError. A waited Request destroys without touching
/// shared state.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept {
    if (this == &other) return *this;
    release();
    comm_ = other.comm_;
    key_ = other.key_;
    alltoallv_ = other.alltoallv_;
    waited_ = other.waited_;
    send_base_ = other.send_base_;
    recv_base_ = other.recv_base_;
    received_ = other.received_;
    value_ = other.value_;
    other.comm_ = nullptr;
    return *this;
  }
  ~Request() { release(); }

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Block until completion, charge the overlap-aware cost model
  /// (blocked seconds count as wait, in-flight seconds spent computing
  /// count as overlap), and make the results available. Idempotent.
  void wait();

  /// ialltoallv: bytes received from all source ranks. Valid after
  /// wait(); the payload lands contiguously in source-rank order at
  /// the start of the receive buffer.
  std::uint64_t bytes_received() const noexcept { return received_; }
  /// iallreduce_u64: the reduction result. Valid after wait().
  std::uint64_t value() const noexcept { return value_; }

 private:
  friend class Communicator;
  Request(Communicator* comm, std::uint64_t key, bool alltoallv,
          const void* send_base, const void* recv_base) noexcept
      : comm_(comm),
        key_(key),
        alltoallv_(alltoallv),
        send_base_(send_base),
        recv_base_(recv_base) {}

  /// Withdraw an un-waited request from its operation (see above).
  void release() noexcept;

  Communicator* comm_ = nullptr;
  std::uint64_t key_ = 0;
  bool alltoallv_ = false;
  bool waited_ = false;
  const void* send_base_ = nullptr;  ///< for the race-detector thaw
  const void* recv_base_ = nullptr;
  std::uint64_t received_ = 0;
  std::uint64_t value_ = 0;
};

/// One rank's endpoint. Each rank thread owns exactly one Communicator;
/// the object itself is not shared between threads.
class Communicator {
 public:
  Communicator(std::shared_ptr<detail::SharedState> shared, int rank);
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  simtime::Clock& clock() noexcept { return *clock_; }
  const CommStats& stats() const noexcept { return stats_; }

  /// Partition the communicator into sub-communicators (MPI_Comm_split):
  /// ranks sharing `color` form a group, ordered by (key, old rank).
  /// Collective; every rank receives its group's communicator. The child
  /// shares this rank's simulated clock, so costs accrue on one
  /// timeline.
  std::unique_ptr<Communicator> split(int color, int key);

  // --- Collectives (all ranks must call in the same order) -------------

  void barrier();

  /// Byte-counted all-to-all exchange (MPI_Alltoallv). Counts and
  /// displacements are in bytes; all spans must have size() == size().
  void alltoallv(std::span<const std::byte> send,
                 std::span<const std::uint64_t> send_counts,
                 std::span<const std::uint64_t> send_displs,
                 std::span<std::byte> recv,
                 std::span<const std::uint64_t> recv_counts,
                 std::span<const std::uint64_t> recv_displs);

  /// Exchange one u64 with every rank (MPI_Alltoall on a single value);
  /// used to learn recv counts before an alltoallv.
  std::vector<std::uint64_t> alltoall_u64(
      std::span<const std::uint64_t> values);

  std::uint64_t allreduce_u64(std::uint64_t value, Op op);
  double allreduce_f64(double value, Op op);
  bool allreduce_lor(bool value);
  bool allreduce_land(bool value);

  std::vector<std::uint64_t> allgather_u64(std::uint64_t value);

  /// Broadcast `data` from `root` into every rank's buffer (all buffers
  /// must have the same size).
  void bcast(std::span<std::byte> data, int root);
  std::uint64_t bcast_u64(std::uint64_t value, int root);

  /// Gather variable-length payloads at `root`.
  GatherResult gatherv(int root, std::span<const std::byte> payload);

  /// All-gather variable-length payloads: every rank receives the
  /// concatenation of all ranks' payloads (rank order) plus the
  /// per-rank byte counts. Composed from gatherv(0) + bcast, so the
  /// existing per-collective fingerprint checks cover it; intended for
  /// modest control-plane blobs (e.g. balance sketches), not bulk data.
  GatherResult allgatherv(std::span<const std::byte> payload);

  // --- Non-blocking collectives ----------------------------------------
  //
  // Initiations are collective calls too: all ranks must initiate the
  // same non-blocking operations in the same order relative to every
  // other collective. Initiation never blocks and charges nothing; the
  // full alpha-beta cost lands at wait(), measured from the *latest*
  // initiation — so a rank that keeps computing between initiate and
  // wait genuinely hides communication time (the hidden seconds are
  // attributed as "overlap" in the stats registry, blocked seconds as
  // "wait"). An immediate wait reproduces the blocking cost exactly.

  /// Non-blocking byte-counted all-to-all. Unlike the blocking
  /// alltoallv, receive counts are not an argument: the payload lands
  /// contiguously in source-rank order at the start of `recv`, which
  /// must be large enough for whatever the peers send, and its total
  /// is Request::bytes_received(). The send and recv buffers belong to
  /// the operation until wait() returns.
  Request ialltoallv(std::span<const std::byte> send,
                     std::span<const std::uint64_t> send_counts,
                     std::span<const std::uint64_t> send_displs,
                     std::span<std::byte> recv);

  /// Non-blocking u64 allreduce; the result is Request::value().
  Request iallreduce_u64(std::uint64_t value, Op op);

  /// Synchronize this rank's clock with all others (max), charging
  /// barrier latency. Used by frameworks at phase boundaries.
  double clock_sync();

 private:
  friend class Request;

  Communicator(std::shared_ptr<detail::SharedState> shared, int rank,
               simtime::Clock* borrowed_clock);

  /// The one blocking rendezvous every clock-charging collective runs:
  /// publish the entry clock and fingerprint `shape`, pass the entry
  /// barrier and the verification fence, run `read()` (the collective's
  /// copy out of the peers' slots; returns its transfer seconds), then
  /// take the slowest entry clock, pass the exit barrier and charge
  /// clock = slowest + collective_latency() + transfer. The caller fills
  /// its slot before and reads its results after.
  template <typename Read>
  void rendezvous(const check::CollectiveFingerprint& shape, Read&& read);

  /// The one non-blocking join both initiations run: take the op for
  /// this rank's next initiation count, reject a kind mismatch, let
  /// `publish(part)` fill this rank's part, stamp its clock and
  /// fingerprint `shape`, and complete the op if this rank initiated
  /// last. Freezes the non-null buffers for the race detector until
  /// wait().
  template <typename Publish>
  Request nb_join(check::CollectiveFingerprint shape, const void* send_base,
                  const void* recv_base, Publish&& publish);

  // Non-blocking machinery backing Request.
  void nb_wait(Request& request);
  void nb_withdraw(std::uint64_t key) noexcept;

  // mimir-check hooks; all no-ops when the job's checker is null.
  int check_global_rank() const noexcept;
  /// Publish this rank's fingerprint into `fps` (the slot table's, or a
  /// non-blocking op's own): `shape` plus the next sequence number,
  /// `sim_time` and the phase. A blocking collective must call it
  /// before the entry barrier.
  void check_announce(std::vector<check::CollectiveFingerprint>& fps,
                      const check::CollectiveFingerprint& shape,
                      double sim_time);
  /// Verification fence after the entry barrier: the communicator's
  /// rank 0 compares all fingerprints (throwing mutil::CommError on a
  /// mismatch), then every rank rendezvouses once more so no rank reads
  /// peer slot data the verifier rejected. Pure thread synchronization —
  /// never advances a simulated clock.
  void check_verify();
  /// Record a locally-detected error in the check report before throwing.
  void check_local_error(const char* code, const std::string& message);
  /// barrier_wait with the blocked state published to the watchdog. Only
  /// the wait itself is marked blocked — a rank computing between
  /// barriers reads as making progress, so the deadlock verdict ("every
  /// rank blocked, nothing changed") cannot fire on slow compute.
  void checked_wait(const char* what);
  /// Report `released - entry` simulated seconds of rendezvous blocking
  /// to the rank's stats registry, if any. Accounting-only: reads
  /// timestamps already computed by the collective, touches no clock.
  static void note_wait(double entry, double released);

  std::shared_ptr<detail::SharedState> shared_;
  int rank_;
  simtime::Clock own_clock_;
  simtime::Clock* clock_ = &own_clock_;
  CommStats stats_;
  std::uint64_t check_seq_ = 0;  ///< per-rank collective sequence number
  std::uint64_t nb_count_ = 0;   ///< non-blocking initiations (op key)
};

}  // namespace simmpi
