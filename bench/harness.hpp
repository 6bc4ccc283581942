// Shared harness for the per-figure benchmark binaries.
//
// Every bench binary regenerates one of the paper's figures as a table:
// one row per x-axis point, one column pair (peak memory, time) per
// series. Configurations that cannot run in memory print "-" exactly
// like the paper's missing data points, annotated with why (OOM = hit
// the node memory budget, SPILL = went out of core, ERR = framework
// limitation such as a KMV larger than a page).
//
// All sizes are scaled 1/1024 from the paper; labels show the
// paper-equivalent size (e.g. our 1 MB prints as "1G(sc)").
// Machine-readable output: call Report::init(figure, cfg) once in each
// binary's main. With stats=1 and/or trace=1 on the command line, every
// run is profiled through a stats::Collector and the process writes
// BENCH_<figure>.json (structured points + the printed tables) and,
// with trace=1, TRACE_<figure>.json (Chrome/Perfetto trace events, one
// process per run) into bench_dir (default "."). Without those flags
// the report stays inactive and the benches behave exactly as before.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mutil/config.hpp"
#include "mutil/sizes.hpp"
#include "pfs/filesystem.hpp"
#include "simmpi/runtime.hpp"
#include "simtime/machine.hpp"
#include "stats/trace.hpp"

namespace bench {

struct Outcome {
  enum class Status { kOk, kSpilled, kOom, kError };
  Status status = Status::kOk;
  double time = 0.0;         ///< simulated seconds
  std::uint64_t peak = 0;    ///< max per-node peak memory, bytes
  std::uint64_t shuffled = 0;
  std::string detail;        ///< error text for kOom/kError
  /// Cross-rank stats aggregate; set only while a Report is active.
  std::shared_ptr<const stats::Summary> profile;

  bool ok() const { return status == Status::kOk; }
  const char* status_name() const;
};

/// The workload body; return true if the framework spilled to the PFS.
using BenchFn = std::function<bool(simmpi::Context&)>;

/// Sweep coordinates of one run, used to label report points and trace
/// processes. Any field may be empty, but not all three, and no two
/// runs of one figure may share a label: bench_diff.py matches points
/// by it.
struct RunLabel {
  std::string app;     ///< benchmark / table group, e.g. "WC (Uniform)"
  std::string x;       ///< x-axis label, e.g. "256M"
  std::string series;  ///< framework config label, e.g. "Mimir"

  std::string text() const;  ///< "app / x / series" (skipping empties)
  bool operator==(const RunLabel&) const = default;
};

/// Run one configuration, translating OOM/usage errors into statuses;
/// a run in which any rank's `fn` returned true is kSpilled. While a
/// Report is active the run is profiled and recorded under `label`.
Outcome run_config(int nranks, const simtime::MachineProfile& machine,
                   pfs::FileSystem& fs, const BenchFn& fn,
                   const RunLabel& label);

/// A driver that owns its own simmpi::run invocation (recovery loops,
/// sched::run_graph, multi-job pipelines). It receives the profiling
/// collector (nullptr while reporting is off) to pass through to its
/// runner and returns the stats it wants recorded.
using DriverFn = std::function<simmpi::JobStats(stats::Collector*)>;

/// run_config for custom drivers: same error envelope and report point.
/// A driver's run is never kSpilled: it is kOk unless it throws.
Outcome run_driver(const DriverFn& fn, const RunLabel& label);

/// Scale helper: our bytes -> the paper's label (x1024), e.g. 1M -> "1G".
std::string paper_size(std::uint64_t scaled_bytes);

/// Fixed-width table printer.
class Table {
 public:
  Table(std::string figure, std::string caption,
        std::vector<std::string> columns);

  /// Print one row; use "-" cells for missing points.
  void row(const std::vector<std::string>& cells);

  /// Memory+time cell pair from an outcome ("3.2MB", "12.4s" or "-").
  static std::string mem_cell(const Outcome& o);
  static std::string time_cell(const Outcome& o);

  ~Table();

 private:
  std::vector<std::string> columns_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
  std::string figure_;
  std::string caption_;
};

/// Process-wide machine-readable figure output (see file header).
class Report {
 public:
  /// Activate reporting for this process when `cfg` asks for it
  /// (stats=1 / trace=1); reads bench_dir= for the output directory.
  /// Files are written when the process exits.
  static void init(const std::string& figure, const mutil::Config& cfg);

  /// The active report, or nullptr when reporting is off.
  static Report* active() noexcept;

  bool trace_enabled() const noexcept { return trace_; }

  /// Record one profiled run (called by run_config and run_driver);
  /// throws mutil::UsageError on an empty label or one this figure
  /// already recorded.
  void add_run(const RunLabel& label, const Outcome& outcome,
               const stats::Collector& collector);

  /// Declare a run-level flag for the BENCH json "flags" object (e.g.
  /// overlap=true for figures exercising the non-blocking shuffle);
  /// bench_diff.py --require NAME=VALUE asserts them in CI.
  void set_flag(const std::string& name, bool value);

  /// Capture a printed table for round-trip checks (called by ~Table).
  void add_table(const std::string& title,
                 const std::vector<std::string>& columns,
                 const std::vector<std::vector<std::string>>& rows);

  /// Write BENCH_<figure>.json (and TRACE_<figure>.json with trace=1);
  /// called automatically at exit, idempotent.
  void write();

  ~Report();

 private:
  Report(std::string figure, const mutil::Config& cfg);

  struct Point {
    RunLabel label;
    Outcome outcome;
    std::string stats_json;  ///< Summary::json() of the run
  };
  struct CapturedTable {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  std::string bench_json() const;

  std::string figure_;
  std::string dir_;
  bool trace_ = false;
  bool written_ = false;
  std::map<std::string, bool> flags_;
  std::vector<Point> points_;
  std::vector<CapturedTable> tables_;
  stats::TraceWriter trace_writer_;
};

/// Parse trailing key=value CLI arguments into a Config; mimir.check=1
/// or mimir.race=1 enables the process-global checker.
mutil::Config parse_cli(int argc, char** argv);

/// true unless "quick=0" / "full=1" style flags say otherwise; quick mode
/// trims the largest x-axis points so `ctest`-style sweeps stay fast.
bool quick_mode(const mutil::Config& cfg);

}  // namespace bench
