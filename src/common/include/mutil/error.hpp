// Error hierarchy shared by all modules of the Mimir reproduction.
//
// All recoverable failures are reported as exceptions derived from
// mutil::Error so that callers can catch one base type at framework
// boundaries. The two subclasses that benchmarks rely on are
// OutOfMemoryError (a rank exceeded its simulated node memory budget)
// and IoError (simulated parallel file system failures).
#pragma once

#include <stdexcept>
#include <string>

namespace mutil {

/// Base class for all errors raised by this project.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a tracked allocation would exceed the configured memory
/// limit of a rank or node. Benchmarks catch this to mark a configuration
/// as "cannot run in memory", mirroring the paper's missing data points.
class OutOfMemoryError : public Error {
 public:
  OutOfMemoryError(const std::string& what, std::size_t requested,
                   std::size_t limit, double sim_time = 0.0)
      : Error(what),
        requested_(requested),
        limit_(limit),
        sim_time_(sim_time) {}

  std::size_t requested() const noexcept { return requested_; }
  std::size_t limit() const noexcept { return limit_; }
  /// Simulated seconds on the throwing rank's clock; 0 unless a
  /// recovery loop stamped it (the tracker has no clock).
  double sim_time() const noexcept { return sim_time_; }

 private:
  std::size_t requested_;
  std::size_t limit_;
  double sim_time_;
};

/// Raised on simulated parallel-file-system failures (missing file,
/// read past end, write to a read-only stream, ...).
class IoError : public Error {
 public:
  using Error::Error;
};

/// Raised for *injected* transient PFS failures (src/inject). Carries
/// the simulated time of the failed operation so a recovery policy can
/// account the lost work; distinguishable from a real IoError (corrupt
/// checkpoint, missing file) which is not retryable.
class TransientIoError : public IoError {
 public:
  explicit TransientIoError(const std::string& what, double sim_time = 0.0)
      : IoError(what), sim_time_(sim_time) {}

  double sim_time() const noexcept { return sim_time_; }

 private:
  double sim_time_;
};

/// Raised when a simulated rank dies (fault injection or a future node
/// failure model). Thrown by the dying rank itself and re-thrown by
/// peers blocked in collectives/recv so a whole job unwinds cleanly
/// instead of hanging; simmpi::run rethrows the original. Recovery
/// policies treat it as retryable.
class RankFailedError : public Error {
 public:
  RankFailedError(const std::string& what, int rank, double sim_time = 0.0)
      : Error(what), rank_(rank), sim_time_(sim_time) {}

  /// The job-global rank that died.
  int rank() const noexcept { return rank_; }
  /// Simulated seconds on the dying rank's clock at the point of death.
  double sim_time() const noexcept { return sim_time_; }

 private:
  int rank_;
  double sim_time_;
};

/// Raised on malformed configuration values.
class ConfigError : public Error {
 public:
  using Error::Error;
};

/// Raised on misuse of the simmpi communication substrate (mismatched
/// collective participation, invalid rank, type size disagreement, ...).
class CommError : public Error {
 public:
  using Error::Error;
};

/// Raised when a framework API is driven through an invalid phase
/// transition (e.g. MR-MPI convert() before aggregate()).
class UsageError : public Error {
 public:
  using Error::Error;
};

}  // namespace mutil
