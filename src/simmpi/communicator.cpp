#include "simmpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>

#include "check/checker.hpp"
#include "check/race.hpp"
#include "mutil/hash.hpp"
#include "shared_state.hpp"
#include "stats/registry.hpp"

namespace simmpi {

using detail::SharedState;
using detail::Slot;

namespace {

std::string current_phase() {
  const stats::Registry* reg = stats::current();
  return reg != nullptr ? reg->phase_path() : std::string();
}

}  // namespace

int Communicator::check_global_rank() const noexcept {
  return shared_->check_ranks[static_cast<std::size_t>(rank_)];
}

void Communicator::check_announce(
    std::vector<check::CollectiveFingerprint>& fps,
    const check::CollectiveFingerprint& shape, double sim_time) {
  auto& s = *shared_;
  if (s.checker == nullptr) return;
  check::CollectiveFingerprint& fp = fps[static_cast<std::size_t>(rank_)];
  fp = shape;
  fp.seq = ++check_seq_;
  fp.sim_time = sim_time;
  fp.phase = current_phase();
  if (check::RaceDetector* race = s.checker->race()) {
    // Feed the cross-run determinism digest: each rank chains its own
    // fingerprint history (announce runs before the entry barrier, or
    // under the state mutex for a non-blocking op, so only the owner
    // rank touches its chain).
    race->record_fingerprint(check_global_rank(), fp, s.nranks);
  }
}

void Communicator::check_verify() {
  auto& s = *shared_;
  if (s.checker == nullptr) return;
  if (rank_ == 0) {
    s.checker->verify_collective(s.check_fps, s.check_ranks);
    if (check::RaceDetector* race = s.checker->race()) {
      // Collective rendezvous joins every participant's vector clock.
      // Safe to apply on one rank's behalf: the peers are (or will be)
      // blocked in the verification fence below, and their
      // pre-collective accesses are ordered by the entry barrier.
      race->collective_sync(s.check_ranks);
    }
  }
  // Verification fence: hold every rank until rank 0 accepted the
  // fingerprints, so nobody dereferences peer slot data from a
  // mismatched collective. Barrier only — simulated clocks untouched.
  checked_wait("check_verify");
}

void Communicator::checked_wait(const char* what) {
  auto& s = *shared_;
  const check::BlockGuard guard(s.checker, check_global_rank(), what,
                                check_seq_, clock_->now());
  s.barrier_wait();
}

void Communicator::check_local_error(const char* code,
                                     const std::string& message) {
  auto& s = *shared_;
  if (s.checker == nullptr) return;
  s.checker->local_error(check_global_rank(), code, message, clock_->now());
}

void Communicator::note_wait(double entry, double released) {
  if (stats::Registry* reg = stats::current()) {
    reg->record_wait(released - entry);
  }
}

Communicator::Communicator(std::shared_ptr<detail::SharedState> shared,
                           int rank)
    : shared_(std::move(shared)), rank_(rank) {}

Communicator::Communicator(std::shared_ptr<detail::SharedState> shared,
                           int rank, simtime::Clock* borrowed_clock)
    : shared_(std::move(shared)), rank_(rank), clock_(borrowed_clock) {}

Communicator::~Communicator() = default;

std::unique_ptr<Communicator> Communicator::split(int color, int key) {
  auto& s = *shared_;
  // Learn every rank's (color, key) to compute group membership and the
  // new rank order deterministically on all members. The ints travel
  // as u64 and convert back exactly.
  const auto colors = allgather_u64(static_cast<std::uint64_t>(color));
  const auto keys = allgather_u64(static_cast<std::uint64_t>(key));
  std::vector<std::pair<int, int>> members;  // (key, old rank)
  for (int r = 0; r < s.nranks; ++r) {
    if (static_cast<int>(colors[static_cast<std::size_t>(r)]) == color) {
      members.emplace_back(
          static_cast<int>(keys[static_cast<std::size_t>(r)]), r);
    }
  }
  std::sort(members.begin(), members.end());
  int new_rank = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].second == rank_) {
      new_rank = static_cast<int>(i);
      break;
    }
  }
  const bool leader = members.front().second == rank_;

  check_announce(s.check_fps, {.op = check::CollectiveOp::kSplit},
                 clock_->now());
  checked_wait("split");
  check_verify();
  if (leader) {
    auto group = std::make_shared<detail::SharedState>(
        static_cast<int>(members.size()), s.net_latency, s.net_bandwidth);
    // The child inherits the job's checker; map its ranks back to
    // job-global ranks so diagnostics name the real culprits.
    group->checker = s.checker;
    for (std::size_t i = 0; i < members.size(); ++i) {
      group->check_ranks[i] =
          s.check_ranks[static_cast<std::size_t>(members[i].second)];
    }
    {
      const std::scoped_lock lock(s.children_mutex);
      s.children.push_back(group);
    }
    const std::scoped_lock lock(s.split_mutex);
    s.split_groups[color] = std::move(group);
  }
  checked_wait("split");
  std::shared_ptr<detail::SharedState> group;
  {
    const std::scoped_lock lock(s.split_mutex);
    group = s.split_groups.at(color);
  }
  checked_wait("split");
  if (leader) {
    const std::scoped_lock lock(s.split_mutex);
    s.split_groups.erase(color);
  }
  checked_wait("split");
  return std::unique_ptr<Communicator>(
      new Communicator(std::move(group), new_rank, clock_));
}

int Communicator::size() const noexcept { return shared_->nranks; }

namespace {

/// Scan all published clocks; every rank computes the same maximum.
double max_clock(const SharedState& s) {
  double t = 0.0;
  for (const auto& slot : s.slots) t = std::max(t, slot.clock);
  return t;
}

void check_vector_sizes(const SharedState& s, std::size_t counts,
                        std::size_t displs, const char* what) {
  const auto p = static_cast<std::size_t>(s.nranks);
  if (counts != p || displs != p) {
    throw mutil::CommError(std::string("simmpi: ") + what +
                           ": counts/displs must have one entry per rank");
  }
}

template <typename T>
T reduce_op(T a, T b, Op op) {
  switch (op) {
    case Op::kSum: return static_cast<T>(a + b);
    case Op::kMax: return std::max(a, b);
    case Op::kMin: return std::min(a, b);
    case Op::kLor: return static_cast<T>((a != T{}) || (b != T{}));
    case Op::kLand: return static_cast<T>((a != T{}) && (b != T{}));
  }
  return a;
}

}  // namespace

template <typename Read>
void Communicator::rendezvous(const check::CollectiveFingerprint& shape,
                              Read&& read) {
  auto& s = *shared_;
  const char* what = check::to_string(shape.op);
  const double entry = clock_->now();
  s.slots[rank_].clock = entry;
  check_announce(s.check_fps, shape, entry);
  checked_wait(what);
  check_verify();
  const double transfer = read();
  const double t = max_clock(s);
  checked_wait(what);
  clock_->set(t + s.collective_latency() + transfer);
  note_wait(entry, t);
}

void Communicator::barrier() {
  rendezvous({.op = check::CollectiveOp::kBarrier}, [] { return 0.0; });
}

double Communicator::clock_sync() {
  barrier();
  return clock_->now();
}

void Communicator::alltoallv(std::span<const std::byte> send,
                             std::span<const std::uint64_t> send_counts,
                             std::span<const std::uint64_t> send_displs,
                             std::span<std::byte> recv,
                             std::span<const std::uint64_t> recv_counts,
                             std::span<const std::uint64_t> recv_displs) {
  auto& s = *shared_;
  check_vector_sizes(s, send_counts.size(), send_displs.size(), "alltoallv");
  check_vector_sizes(s, recv_counts.size(), recv_displs.size(), "alltoallv");
  for (int i = 0; i < s.nranks; ++i) {
    if (send_displs[i] + send_counts[i] > send.size()) {
      check_local_error("alltoallv-local-bounds",
                        "alltoallv send region for peer " +
                            std::to_string(i) + " ([" +
                            std::to_string(send_displs[i]) + ", " +
                            std::to_string(send_displs[i] + send_counts[i]) +
                            ")) exceeds the send buffer (" +
                            std::to_string(send.size()) + " bytes)");
      throw mutil::CommError("simmpi: alltoallv send region out of bounds");
    }
    if (recv_displs[i] + recv_counts[i] > recv.size()) {
      check_local_error("alltoallv-local-bounds",
                        "alltoallv recv region for peer " +
                            std::to_string(i) + " ([" +
                            std::to_string(recv_displs[i]) + ", " +
                            std::to_string(recv_displs[i] + recv_counts[i]) +
                            ")) exceeds the recv buffer (" +
                            std::to_string(recv.size()) + " bytes)");
      throw mutil::CommError("simmpi: alltoallv recv region out of bounds");
    }
  }

  Slot& mine = s.slots[rank_];
  mine.send = send.data();
  mine.counts = send_counts.data();
  mine.displs = send_displs.data();
  const std::uint64_t sent = std::accumulate(
      send_counts.begin(), send_counts.end(), std::uint64_t{0});
  std::uint64_t received = 0;
  rendezvous({.op = check::CollectiveOp::kAlltoallv,
              .width = 1,
              .send_counts = send_counts.data(),
              .recv_counts = recv_counts.data()},
             [&] {
               // Pull model: copy my block out of every sender's buffer.
               for (int src = 0; src < s.nranks; ++src) {
                 const Slot& theirs = s.slots[src];
                 const std::uint64_t len = theirs.counts[rank_];
                 if (len != recv_counts[src]) {
                   throw mutil::CommError(
                       "simmpi: alltoallv recv count mismatch (sender "
                       "advertised " +
                       std::to_string(len) + ", receiver expected " +
                       std::to_string(recv_counts[src]) + ")");
                 }
                 if (len != 0) {
                   std::memcpy(recv.data() + recv_displs[src],
                               theirs.send + theirs.displs[rank_], len);
                 }
                 received += len;
               }
               return static_cast<double>(std::max(sent, received)) /
                      s.net_bandwidth;
             });
  stats_.bytes_sent += sent;
  stats_.bytes_received += received;
}

std::vector<std::uint64_t> Communicator::alltoall_u64(
    std::span<const std::uint64_t> values) {
  auto& s = *shared_;
  if (values.size() != static_cast<std::size_t>(s.nranks)) {
    throw mutil::CommError("simmpi: alltoall_u64 needs one value per rank");
  }
  s.slots[rank_].counts = values.data();
  std::vector<std::uint64_t> result(static_cast<std::size_t>(s.nranks));
  rendezvous({.op = check::CollectiveOp::kAlltoallU64, .width = 8}, [&] {
    for (int src = 0; src < s.nranks; ++src) {
      result[static_cast<std::size_t>(src)] = s.slots[src].counts[rank_];
    }
    return 0.0;
  });
  return result;
}

std::uint64_t Communicator::allreduce_u64(std::uint64_t value, Op op) {
  auto& s = *shared_;
  s.slots[rank_].u64 = value;
  std::uint64_t acc = 0;
  rendezvous({.op = check::CollectiveOp::kAllreduceU64,
              .width = 8,
              .extra = static_cast<std::uint32_t>(op)},
             [&] {
               acc = s.slots[0].u64;
               for (int i = 1; i < s.nranks; ++i) {
                 acc = reduce_op(acc, s.slots[i].u64, op);
               }
               return 0.0;
             });
  return acc;
}

double Communicator::allreduce_f64(double value, Op op) {
  auto& s = *shared_;
  s.slots[rank_].f64 = value;
  double acc = 0.0;
  rendezvous({.op = check::CollectiveOp::kAllreduceF64,
              .width = 8,
              .extra = static_cast<std::uint32_t>(op)},
             [&] {
               acc = s.slots[0].f64;
               for (int i = 1; i < s.nranks; ++i) {
                 acc = reduce_op(acc, s.slots[i].f64, op);
               }
               return 0.0;
             });
  return acc;
}

bool Communicator::allreduce_lor(bool value) {
  return allreduce_u64(value ? 1 : 0, Op::kLor) != 0;
}

bool Communicator::allreduce_land(bool value) {
  return allreduce_u64(value ? 1 : 0, Op::kLand) != 0;
}

std::vector<std::uint64_t> Communicator::allgather_u64(std::uint64_t value) {
  auto& s = *shared_;
  s.slots[rank_].u64 = value;
  std::vector<std::uint64_t> result(static_cast<std::size_t>(s.nranks));
  rendezvous({.op = check::CollectiveOp::kAllgatherU64, .width = 8}, [&] {
    for (int i = 0; i < s.nranks; ++i) {
      result[static_cast<std::size_t>(i)] = s.slots[i].u64;
    }
    return 0.0;
  });
  return result;
}

void Communicator::bcast(std::span<std::byte> data, int root) {
  auto& s = *shared_;
  if (root < 0 || root >= s.nranks) {
    throw mutil::CommError("simmpi: bcast: bad root rank");
  }
  Slot& mine = s.slots[rank_];
  mine.send = data.data();
  mine.bytes = data.size();
  rendezvous({.op = check::CollectiveOp::kBcast,
              .width = 1,
              .root = root,
              .bytes = data.size()},
             [&] {
               const Slot& src = s.slots[root];
               if (src.bytes != data.size()) {
                 throw mutil::CommError(
                     "simmpi: bcast: buffer size mismatch");
               }
               if (rank_ != root && !data.empty()) {
                 std::memcpy(data.data(), src.send, data.size());
               }
               return static_cast<double>(data.size()) / s.net_bandwidth;
             });
}

std::uint64_t Communicator::bcast_u64(std::uint64_t value, int root) {
  auto& s = *shared_;
  if (root < 0 || root >= s.nranks) {
    throw mutil::CommError("simmpi: bcast_u64: bad root rank");
  }
  s.slots[rank_].u64 = value;
  std::uint64_t result = 0;
  rendezvous(
      {.op = check::CollectiveOp::kBcastU64, .width = 8, .root = root},
      [&] {
        result = s.slots[root].u64;
        return 0.0;
      });
  return result;
}

GatherResult Communicator::gatherv(int root,
                                   std::span<const std::byte> payload) {
  auto& s = *shared_;
  if (root < 0 || root >= s.nranks) {
    throw mutil::CommError("simmpi: gatherv: bad root rank");
  }
  Slot& mine = s.slots[rank_];
  mine.send = payload.data();
  mine.bytes = payload.size();
  GatherResult result;
  std::uint64_t total = 0;
  rendezvous(
      {.op = check::CollectiveOp::kGatherv, .width = 1, .root = root},
      [&] {
        if (rank_ != root) {
          return static_cast<double>(payload.size()) / s.net_bandwidth;
        }
        result.counts.resize(static_cast<std::size_t>(s.nranks));
        for (int i = 0; i < s.nranks; ++i) {
          result.counts[static_cast<std::size_t>(i)] = s.slots[i].bytes;
          total += s.slots[i].bytes;
        }
        result.data.resize(total);
        std::uint64_t offset = 0;
        for (int i = 0; i < s.nranks; ++i) {
          const Slot& theirs = s.slots[i];
          if (theirs.bytes != 0) {
            std::memcpy(result.data.data() + offset, theirs.send,
                        theirs.bytes);
          }
          offset += theirs.bytes;
        }
        return static_cast<double>(total) / s.net_bandwidth;
      });
  if (rank_ == root) {
    stats_.bytes_received += total;
  } else {
    stats_.bytes_sent += payload.size();
  }
  return result;
}

GatherResult Communicator::allgatherv(std::span<const std::byte> payload) {
  // Composition keeps the rendezvous protocol (and the fingerprint
  // verification) unchanged: gather everything at rank 0, then
  // broadcast the counts and the concatenated payload. Costs roughly
  // 2x the payload volume of a tree allgatherv — acceptable for the
  // control-plane blobs this call exists for.
  GatherResult result = gatherv(0, payload);
  const std::uint64_t total =
      bcast_u64(static_cast<std::uint64_t>(result.data.size()), 0);
  if (rank_ != 0) {
    result.counts.assign(static_cast<std::size_t>(size()), 0);
    result.data.resize(total);
  }
  bcast(std::as_writable_bytes(std::span<std::uint64_t>(result.counts)), 0);
  bcast(std::span<std::byte>(result.data), 0);
  return result;
}

// --- non-blocking collectives ---------------------------------------------

namespace {

using detail::NbOp;

/// What a rank waiting on a non-blocking op publishes to the watchdog.
const char* nb_wait_name(bool alltoallv) {
  return alltoallv ? "ialltoallv.wait" : "iallreduce_u64.wait";
}

/// Handoff key for the initiate -> wait happens-before edge, salted
/// with the shared-state identity so keys from different communicators
/// (and from sched's (node, rank) keyspace) cannot collide.
std::uint64_t nb_race_key(const SharedState& s, std::uint64_t key) {
  return mutil::mix64(
      reinterpret_cast<std::uintptr_t>(&s) ^ mutil::mix64(key));
}

/// Completion, run by the last initiator while holding s.mutex: verify
/// fingerprints, move all data, publish results, wake waiters. May
/// throw (verification mismatch, receive-buffer overflow) — the
/// thrower unwinds, the runtime aborts the job, and blocked peers wake
/// via the abort channel. A withdrawn op is left incomplete.
void nb_complete_locked(SharedState& s, std::uint64_t key, NbOp& op) {
  if (op.withdrawn) return;
  if (s.checker != nullptr && !op.fps.empty()) {
    s.checker->verify_collective(op.fps, s.check_ranks);
  }
  const auto n = static_cast<std::size_t>(s.nranks);
  if (op.kind == check::CollectiveOp::kIalltoallv) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      NbOp::Part& to = op.parts[dst];
      std::uint64_t offset = 0;
      for (std::size_t src = 0; src < n; ++src) {
        const NbOp::Part& from = op.parts[src];
        const std::uint64_t len = from.counts[dst];
        if (offset + len > to.recv_cap) {
          throw mutil::CommError(
              "simmpi: ialltoallv recv buffer overflow: rank " +
              std::to_string(dst) + " receives more than " +
              std::to_string(to.recv_cap) + " bytes");
        }
        if (len != 0) {
          std::memcpy(to.recv + offset,
                      from.send + from.displs[dst], len);
        }
        offset += len;
      }
      to.received = offset;
    }
  } else {
    const Op red = static_cast<Op>(op.red_op);
    std::uint64_t acc = op.parts[0].u64;
    for (std::size_t i = 1; i < n; ++i) {
      acc = reduce_op(acc, op.parts[i].u64, red);
    }
    op.reduced = acc;
  }
  double t = 0.0;
  for (const NbOp::Part& part : op.parts) t = std::max(t, part.clock);
  op.t_all = t;
  if (s.checker != nullptr) {
    s.checker->mark_released(
        s.check_ranks,
        nb_wait_name(op.kind == check::CollectiveOp::kIalltoallv), key);
  }
  op.complete.store(true, std::memory_order_release);
  s.cv.notify_all();
}

}  // namespace

template <typename Publish>
Request Communicator::nb_join(check::CollectiveFingerprint shape,
                              const void* send_base, const void* recv_base,
                              Publish&& publish) {
  auto& s = *shared_;
  const std::uint64_t key = ++nb_count_;
  const char* what = check::to_string(shape.op);
  const bool alltoallv = shape.op == check::CollectiveOp::kIalltoallv;
  check::RaceDetector* race =
      s.checker != nullptr ? s.checker->race() : nullptr;
  if (race != nullptr) {
    // Publish this rank's clock for the waiters to join at completion
    // (initiate -> wait is the happens-before edge; initiators are NOT
    // ordered against each other), then freeze the buffers so any
    // touch before wait() — including by this rank itself — is caught.
    const int grank = check_global_rank();
    race->handoff_publish(grank, nb_race_key(s, key));
    if (send_base != nullptr) {
      race->nb_initiate(send_base, grank, /*op_writes=*/false, what,
                        clock_->now(), current_phase());
    }
    if (recv_base != nullptr) {
      race->nb_initiate(recv_base, grank, /*op_writes=*/true, what,
                        clock_->now(), current_phase());
    }
  }
  {
    const std::scoped_lock lock(s.mutex);
    if (s.aborted) s.throw_aborted_locked();
    NbOp& op = s.nb_ops[key];
    if (op.parts.empty()) {
      op.kind = shape.op;
      op.red_op = shape.extra;
      op.parts.resize(static_cast<std::size_t>(s.nranks));
      if (s.checker != nullptr) {
        op.fps.resize(static_cast<std::size_t>(s.nranks));
      }
    } else if (op.kind != shape.op) {
      throw mutil::CommError(
          std::string(
              "simmpi: non-blocking collective mismatch: this rank "
              "initiated ") +
          what + " #" + std::to_string(key) + " but a peer initiated " +
          check::to_string(op.kind));
    }
    NbOp::Part& part = op.parts[static_cast<std::size_t>(rank_)];
    publish(part);
    part.clock = clock_->now();
    // The fingerprint borrows the op's copy of the send counts, which
    // outlives the caller's (iallreduce_u64 has none).
    if (!part.counts.empty()) shape.send_counts = part.counts.data();
    check_announce(op.fps, shape, part.clock);
    if (++op.arrived == s.nranks) nb_complete_locked(s, key, op);
  }
  return Request(this, key, alltoallv, send_base, recv_base);
}

Request Communicator::ialltoallv(std::span<const std::byte> send,
                                 std::span<const std::uint64_t> send_counts,
                                 std::span<const std::uint64_t> send_displs,
                                 std::span<std::byte> recv) {
  auto& s = *shared_;
  check_vector_sizes(s, send_counts.size(), send_displs.size(),
                     "ialltoallv");
  for (int i = 0; i < s.nranks; ++i) {
    if (send_displs[i] + send_counts[i] > send.size()) {
      check_local_error(
          "ialltoallv-local-bounds",
          "ialltoallv send region for peer " + std::to_string(i) + " ([" +
              std::to_string(send_displs[i]) + ", " +
              std::to_string(send_displs[i] + send_counts[i]) +
              ")) exceeds the send buffer (" + std::to_string(send.size()) +
              " bytes)");
      throw mutil::CommError("simmpi: ialltoallv send region out of bounds");
    }
  }
  const std::uint64_t sent = std::accumulate(
      send_counts.begin(), send_counts.end(), std::uint64_t{0});
  return nb_join({.op = check::CollectiveOp::kIalltoallv, .width = 1},
                 send.data(), recv.data(), [&](NbOp::Part& part) {
                   part.send = send.data();
                   part.recv = recv.data();
                   part.recv_cap = recv.size();
                   part.counts.assign(send_counts.begin(), send_counts.end());
                   part.displs.assign(send_displs.begin(), send_displs.end());
                   part.sent = sent;
                 });
}

Request Communicator::iallreduce_u64(std::uint64_t value, Op op) {
  return nb_join({.op = check::CollectiveOp::kIallreduceU64,
                  .width = 8,
                  .extra = static_cast<std::uint32_t>(op)},
                 nullptr, nullptr,
                 [&](NbOp::Part& part) { part.u64 = value; });
}

void Communicator::nb_wait(Request& request) {
  auto& s = *shared_;
  bool alltoallv = false;
  double t_init = 0.0;
  double t_all = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  {
    const check::BlockGuard guard(s.checker, check_global_rank(),
                                  nb_wait_name(request.alltoallv_),
                                  request.key_, clock_->now());
    std::map<std::uint64_t, NbOp>::iterator it;
    {
      const std::scoped_lock lock(s.mutex);
      it = s.nb_ops.find(request.key_);
      if (it == s.nb_ops.end()) {
        if (s.aborted) s.throw_aborted_locked();
        throw mutil::CommError(
            "simmpi: wait on an unknown non-blocking request");
      }
    }
    // The entry stays put while the lock is dropped: only this rank's
    // own wait can count the last `waited` and erase it.
    NbOp& op = it->second;
    s.wait_released(
        [&] { return op.complete.load(std::memory_order_acquire); });
    const std::scoped_lock lock(s.mutex);
    const NbOp::Part& part = op.parts[static_cast<std::size_t>(rank_)];
    alltoallv = op.kind == check::CollectiveOp::kIalltoallv;
    t_init = part.clock;
    t_all = op.t_all;
    if (alltoallv) {
      request.received_ = part.received;
      sent = part.sent;
      received = part.received;
    } else {
      request.value_ = op.reduced;
    }
    if (++op.waited == s.nranks) s.nb_ops.erase(it);
  }

  // Cost model: the op completes collective_latency + transfer after
  // the *latest* initiation. Seconds this rank slept until then are
  // blocked wait; seconds the op was in flight while the rank computed
  // are overlap (hidden communication). An initiate-then-wait with no
  // compute in between lands exactly on the blocking collective's time.
  double cost = s.collective_latency();
  if (alltoallv) {
    cost += static_cast<double>(std::max(sent, received)) / s.net_bandwidth;
  }
  const double done_at = t_all + cost;
  const double now = clock_->now();
  note_wait(now, done_at);
  if (stats::Registry* reg = stats::current()) {
    reg->record_overlap(std::max(0.0, std::min(now, done_at) - t_init));
  }
  clock_->set(std::max(now, done_at));

  if (s.checker != nullptr) {
    if (check::RaceDetector* race = s.checker->race()) {
      const int grank = check_global_rank();
      // Join every initiator's published clock: the happens-before edge
      // lands at completion, not initiation.
      race->handoff_acquire(grank, nb_race_key(s, request.key_));
      if (request.send_base_ != nullptr) {
        race->nb_complete(request.send_base_, grank, clock_->now(),
                          current_phase());
      }
      if (request.recv_base_ != nullptr) {
        race->nb_complete(request.recv_base_, grank, clock_->now(),
                          current_phase());
      }
    }
  }
  stats_.bytes_sent += sent;
  stats_.bytes_received += received;
}

void Communicator::nb_withdraw(std::uint64_t key) noexcept {
  auto& s = *shared_;
  {
    const std::scoped_lock lock(s.mutex);
    const auto it = s.nb_ops.find(key);
    if (it != s.nb_ops.end() && !it->second.complete) {
      NbOp::Part& part = it->second.parts[static_cast<std::size_t>(rank_)];
      part.send = nullptr;
      part.recv = nullptr;
      it->second.withdrawn = true;
    }
  }
  if (std::uncaught_exceptions() == 0) {
    s.abort(std::make_exception_ptr(mutil::UsageError(
        "simmpi: rank " + std::to_string(check_global_rank()) +
        " dropped non-blocking request #" + std::to_string(key) +
        " before wait()")));
  }
}

void Request::release() noexcept {
  if (comm_ != nullptr && !waited_) comm_->nb_withdraw(key_);
}

void Request::wait() {
  if (comm_ == nullptr || waited_) return;
  comm_->nb_wait(*this);
  waited_ = true;
}

}  // namespace simmpi
