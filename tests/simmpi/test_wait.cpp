// The one wait routine every blocked rank thread goes through
// (SharedState::wait_released, behind barrier_wait and Request::wait):
// a waiter, which enters without the state mutex, spins first and parks
// on the condition variable once its spin budget runs out. Both ways out
// must release it with the same results, and an abort must unwind it
// from either with the same error. A barrier arrival takes no lock.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "mutil/error.hpp"
#include "shared_state.hpp"
#include "simmpi/runtime.hpp"

namespace {

using simmpi::Context;
using simmpi::Op;
using simmpi::Request;
using simmpi::detail::SharedState;

/// Far past the spin budget (tens of microseconds on a 4-vCPU Xeon VM),
/// so a waiter whose peer sleeps this long has parked before the peer
/// arrives unless the host starves it of every one of its yields.
constexpr auto kPastSpinBudget = std::chrono::milliseconds(50);

/// Checks of `released` a waiter makes before it parks: one on entry,
/// one per spin iteration. The next check happens under the lock, in
/// the condition variable's predicate, right before the waiter sleeps.
constexpr int kChecksBeforePark = SharedState::kSpinIterations + 1;

/// How long a test waits for a step that takes microseconds when the
/// code under test is right and never happens when it is wrong.
constexpr auto kStepDeadline = std::chrono::seconds(5);

void wait_for_checks(const std::atomic<int>& checks, int at_least) {
  while (checks.load() < at_least) std::this_thread::yield();
}

/// Yields until `done()` holds; false if kStepDeadline passes first.
template <typename Done>
bool wait_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kStepDeadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Counts the checks of `released` a waiter makes. With `hold` set, it
/// holds the waiter at its first spin check (the second check) until
/// `go`, so another thread can release or abort it while it spins
/// however short the host makes the budget.
struct Probe {
  explicit Probe(bool hold_first_spin) : hold(hold_first_spin) {}

  void check() {
    if (checks.fetch_add(1) + 1 == 2 && hold) {
      while (!go) std::this_thread::yield();
    }
  }

  const bool hold;
  std::atomic<int> checks{0};
  std::atomic<bool> go{false};
};

/// Store `flag` the way barrier_wait and nb_complete_locked store their
/// release: with release semantics, holding the mutex, then notify.
void release(SharedState& s, std::atomic<bool>& flag) {
  const std::scoped_lock lock(s.mutex);
  flag.store(true, std::memory_order_release);
  s.cv.notify_all();
}

TEST(WaitReleased, SpinningWaiterLeavesOnTheReleaseStore) {
  SharedState s(2, 0.0, 1.0);
  std::atomic<bool> flag{false};
  std::atomic<bool> left{false};
  bool left_while_locked = false;
  Probe probe(/*hold_first_spin=*/true);
  // The releaser keeps holding the mutex after its store until the
  // waiter has left, so a waiter that took the lock to leave never
  // would.
  std::thread releaser([&] {
    wait_for_checks(probe.checks, 2);
    const std::scoped_lock lock(s.mutex);
    flag.store(true, std::memory_order_release);
    s.cv.notify_all();
    probe.go = true;
    left_while_locked = wait_until([&] { return left.load(); });
  });
  s.wait_released([&] {
    probe.check();
    return flag.load(std::memory_order_acquire);
  });
  left = true;
  releaser.join();
  // The spin saw the store: the waiter left on that check, lock-free.
  EXPECT_TRUE(left_while_locked);
  EXPECT_EQ(probe.checks.load(), 2);
}

TEST(WaitReleased, ParkedWaiterWakesOnTheNotify) {
  SharedState s(2, 0.0, 1.0);
  std::atomic<bool> flag{false};
  Probe probe(/*hold_first_spin=*/false);
  // One check past the spin budget is the predicate check under the
  // lock; the releaser's lock then waits until the waiter sleeps.
  std::thread releaser([&] {
    wait_for_checks(probe.checks, kChecksBeforePark + 1);
    release(s, flag);
  });
  s.wait_released([&] {
    probe.check();
    return flag.load(std::memory_order_acquire);
  });
  releaser.join();
  // Woken from the condition variable: it re-checked after sleeping.
  EXPECT_GT(probe.checks.load(), kChecksBeforePark + 1);
}

TEST(WaitReleased, AbortUnwindsSpinningAndParkedWaitersWithTheDeadRank) {
  SharedState s(3, 0.0, 1.0);
  Probe parked(/*hold_first_spin=*/false);
  Probe spinning(/*hold_first_spin=*/true);
  int parked_saw = -1;
  int spinning_saw = -1;
  auto wait = [&s](Probe& probe, int& dead_rank) {
    try {
      s.wait_released([&probe] {
        probe.check();
        return false;
      });
    } catch (const mutil::RankFailedError& e) {
      dead_rank = e.rank();
    }
  };
  std::thread parked_thread([&] { wait(parked, parked_saw); });
  wait_for_checks(parked.checks, kChecksBeforePark + 1);
  std::thread spinning_thread([&] { wait(spinning, spinning_saw); });
  wait_for_checks(spinning.checks, 2);
  s.abort(std::make_exception_ptr(
      mutil::RankFailedError("rank 2 failed", 2, 1.5)));
  spinning.go = true;
  parked_thread.join();
  spinning_thread.join();
  EXPECT_EQ(parked_saw, 2);
  EXPECT_EQ(spinning_saw, 2);
  // The spinning waiter left its spin at the abort, long before its
  // budget ran out.
  EXPECT_LT(spinning.checks.load(), kChecksBeforePark);
}

// Every arrival is counted while another thread holds the state
// mutex, so no arrival queues on it. Once the mutex is free, the last
// arrival releases every waiter, spinning or parked.
TEST(BarrierWait, ArrivalsAreCountedWhileTheMutexIsHeld) {
  for (const int n : {2, 3, 5}) {
    SharedState s(n, 0.0, 1.0);
    const auto waiters = static_cast<std::uint64_t>(n - 1);
    std::vector<std::thread> ranks;
    bool counted = false;
    {
      const std::scoped_lock lock(s.mutex);
      for (std::uint64_t r = 0; r < waiters; ++r) {
        ranks.emplace_back([&s] { s.barrier_wait(); });
      }
      counted = wait_until([&] { return s.arrivals.load() == waiters; });
      EXPECT_EQ(s.generation.load(), 0u) << n << " ranks";
    }
    s.barrier_wait();
    for (std::thread& rank : ranks) rank.join();
    EXPECT_TRUE(counted) << n << " ranks";
    EXPECT_EQ(s.arrivals.load(), waiters + 1) << n << " ranks";
    EXPECT_EQ(s.generation.load(), 1u) << n << " ranks";
  }
}

// Round 0: every rank arrives at once, so the waiters leave while
// spinning. Round 1: the last rank sleeps past the spin budget, so its
// peers park. Either way the barrier lands every rank on the same
// clock, and the values around it are exact.
TEST(BarrierWait, ReleasesSpinningAndParkedWaiters) {
  simmpi::run_test(4, [](Context& ctx) {
    for (int round = 0; round < 2; ++round) {
      ctx.clock().advance(1e-3 * ctx.rank());
      if (round == 1 && ctx.rank() == 3) {
        std::this_thread::sleep_for(kPastSpinBudget);
      }
      ctx.comm.barrier();
      const double now = ctx.clock().now();
      EXPECT_EQ(ctx.comm.allreduce_f64(now, Op::kMax),
                ctx.comm.allreduce_f64(now, Op::kMin));
      EXPECT_EQ(ctx.comm.allreduce_u64(ctx.rank() + round, Op::kSum),
                6u + 4u * round);
    }
  });
}

TEST(RequestWait, ReleasesSpinningAndParkedWaiters) {
  simmpi::run_test(3, [](Context& ctx) {
    for (int round = 0; round < 2; ++round) {
      if (round == 1 && ctx.rank() == 2) {
        std::this_thread::sleep_for(kPastSpinBudget);
      }
      Request r = ctx.comm.iallreduce_u64(ctx.rank() + round, Op::kSum);
      r.wait();
      EXPECT_EQ(r.value(), 3u + 3u * round);
    }
  });
}

enum class Blocker { kBarrier, kRequestWait };

struct AbortCase {
  Blocker blocker;
  bool dead_rank_sleeps;  ///< past the spin budget, so the peers park
};

class WaitAbort : public ::testing::TestWithParam<AbortCase> {};

// Rank 2 dies either right after the first barrier, while its peers
// spin in the next wait, or after sleeping past the spin budget, once
// they have parked. Every peer unwinds with a RankFailedError naming
// rank 2, and the job rethrows the dead rank's own error.
TEST_P(WaitAbort, PeersUnwindWithTheDeadRank) {
  const AbortCase c = GetParam();
  std::array<int, 4> seen{};
  seen.fill(-1);
  EXPECT_THROW(
      simmpi::run_test(
          4,
          [&](Context& ctx) {
            ctx.comm.barrier();
            if (ctx.rank() == 2) {
              if (c.dead_rank_sleeps) {
                std::this_thread::sleep_for(kPastSpinBudget);
              }
              throw mutil::RankFailedError("rank 2 failed", 2,
                                           ctx.clock().now());
            }
            try {
              if (c.blocker == Blocker::kBarrier) {
                ctx.comm.barrier();
              } else {
                Request r = ctx.comm.iallreduce_u64(1, Op::kSum);
                r.wait();
              }
            } catch (const mutil::RankFailedError& e) {
              seen[static_cast<std::size_t>(ctx.rank())] = e.rank();
              throw;
            }
          }),
      mutil::RankFailedError);
  EXPECT_EQ(seen, (std::array<int, 4>{2, 2, -1, 2}));
}

INSTANTIATE_TEST_SUITE_P(
    Blockers, WaitAbort,
    ::testing::Values(AbortCase{Blocker::kBarrier, false},
                      AbortCase{Blocker::kBarrier, true},
                      AbortCase{Blocker::kRequestWait, false},
                      AbortCase{Blocker::kRequestWait, true}),
    [](const ::testing::TestParamInfo<AbortCase>& param) {
      return std::string(param.param.blocker == Blocker::kBarrier
                             ? "Barrier"
                             : "RequestWait") +
             (param.param.dead_rank_sleeps ? "Parked" : "Spinning");
    });

class WaitStress : public ::testing::TestWithParam<int> {};

// About 5k collectives per rank count, a quarter of them on a split
// sub-communicator, cycling barrier / allreduce_u64 / alltoall_u64 so
// every kind follows every other with no compute in between: the
// back-to-back rounds where a slow waiter could still be leaving one
// rendezvous while its peers enter the next.
TEST_P(WaitStress, MixedCollectivesStayExact) {
  constexpr int kOps = 5000;
  simmpi::run_test(GetParam(), [](Context& ctx) {
    const auto sub = ctx.comm.split(ctx.rank() % 2, ctx.rank());
    int mismatches = 0;
    for (int i = 0; i < kOps; ++i) {
      simmpi::Communicator& comm = i % 4 == 3 ? *sub : ctx.comm;
      const auto p = static_cast<std::uint64_t>(comm.size());
      const auto r = static_cast<std::uint64_t>(comm.rank());
      const auto salt = static_cast<std::uint64_t>(i);
      switch (i % 3) {
        case 0:
          comm.barrier();
          break;
        case 1:
          // Sum over ranks q of (q + 1) * salt.
          if (comm.allreduce_u64((r + 1) * salt, Op::kSum) !=
              p * (p + 1) / 2 * salt) {
            ++mismatches;
          }
          break;
        default: {
          // Rank q sends q * p + dst + salt to dst.
          std::vector<std::uint64_t> send(p);
          for (std::uint64_t dst = 0; dst < p; ++dst) {
            send[dst] = r * p + dst + salt;
          }
          const auto got = comm.alltoall_u64(send);
          for (std::uint64_t src = 0; src < p; ++src) {
            if (got[src] != src * p + r + salt) ++mismatches;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << "rank " << ctx.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, WaitStress,
                         ::testing::Values(2, 3, 5, 8));

}  // namespace
