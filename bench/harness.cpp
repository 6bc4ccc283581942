#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "check/checker.hpp"
#include "check/race.hpp"
#include "mutil/error.hpp"
#include "stats/jsonlite.hpp"

namespace bench {

namespace {

std::unique_ptr<Report> g_report;  // written (and freed) at process exit

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// The error envelope shared by run_config and run_driver. A run is
/// kSpilled when `spilled` is set and reads true once `fn` returns.
Outcome run_enveloped(const DriverFn& fn, const std::atomic<bool>* spilled,
                      const RunLabel& label) {
  Outcome outcome;
  Report* report = Report::active();
  std::unique_ptr<stats::Collector> collector;
  if (report != nullptr) collector = std::make_unique<stats::Collector>();
  try {
    const auto stats = fn(collector.get());
    outcome.time = stats.sim_time;
    outcome.peak = stats.node_peak;
    outcome.shuffled = stats.shuffle_bytes;
    if (spilled != nullptr && spilled->load()) {
      outcome.status = Outcome::Status::kSpilled;
    }
  } catch (const mutil::OutOfMemoryError& e) {
    outcome.status = Outcome::Status::kOom;
    outcome.detail = e.what();
  } catch (const mutil::Error& e) {
    outcome.status = Outcome::Status::kError;
    outcome.detail = e.what();
  }
  if (report != nullptr) {
    outcome.profile =
        std::make_shared<const stats::Summary>(collector->summary());
    report->add_run(label, outcome, *collector);
  }
  return outcome;
}

}  // namespace

const char* Outcome::status_name() const {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kSpilled: return "spill";
    case Status::kOom: return "oom";
    case Status::kError: return "err";
  }
  return "?";
}

std::string RunLabel::text() const {
  std::string out;
  for (const std::string* part : {&app, &x, &series}) {
    if (part->empty()) continue;
    if (!out.empty()) out += " / ";
    out += *part;
  }
  return out;
}

Outcome run_config(int nranks, const simtime::MachineProfile& machine,
                   pfs::FileSystem& fs, const BenchFn& fn,
                   const RunLabel& label) {
  std::atomic<bool> spilled{false};
  return run_enveloped(
      [&](stats::Collector* collector) {
        return simmpi::run(
            nranks, machine, fs,
            [&](simmpi::Context& ctx) {
              if (fn(ctx)) spilled.store(true, std::memory_order_relaxed);
            },
            collector);
      },
      &spilled, label);
}

Outcome run_driver(const DriverFn& fn, const RunLabel& label) {
  return run_enveloped(fn, nullptr, label);
}

void Report::init(const std::string& figure, const mutil::Config& cfg) {
  const bool stats = cfg.get_bool("stats", false);
  const bool trace = cfg.get_bool("trace", false);
  if (!stats && !trace) return;
  g_report.reset(new Report(figure, cfg));
}

Report* Report::active() noexcept { return g_report.get(); }

Report::Report(std::string figure, const mutil::Config& cfg)
    : figure_(std::move(figure)),
      dir_(cfg.get_string("bench_dir", ".")),
      trace_(cfg.get_bool("trace", false)) {}

Report::~Report() { write(); }

void Report::add_run(const RunLabel& label, const Outcome& outcome,
                     const stats::Collector& collector) {
  if (label.text().empty()) {
    throw mutil::UsageError("bench: " + figure_ +
                            ": a reported run needs a RunLabel");
  }
  if (std::any_of(points_.begin(), points_.end(),
                  [&](const Point& p) { return p.label == label; })) {
    throw mutil::UsageError("bench: " + figure_ + ": two runs labelled '" +
                            label.text() + "'");
  }
  Point point;
  point.label = label;
  point.outcome = outcome;
  point.stats_json = collector.summary().json();
  if (trace_) trace_writer_.add_run(collector, point.label.text());
  points_.push_back(std::move(point));
}

void Report::set_flag(const std::string& name, bool value) {
  flags_[name] = value;
}

void Report::add_table(const std::string& title,
                       const std::vector<std::string>& columns,
                       const std::vector<std::vector<std::string>>& rows) {
  tables_.push_back({title, columns, rows});
}

std::string Report::bench_json() const {
  using stats::jsonlite::escape;
  std::string out = "{\"figure\":\"" + escape(figure_) + "\",\"schema\":2";
  // Run-level flags for baseline hygiene: committed perf baselines must
  // come from analyzer-free runs (bench_diff.py --require race_checked=
  // false enforces it in CI).
  const check::JobChecker* checker = check::global_checker();
  const bool race_checked = checker != nullptr && checker->race() != nullptr;
  out += ",\"flags\":{\"race_checked\":";
  out += race_checked ? "true" : "false";
  for (const auto& [name, value] : flags_) {
    if (name == "race_checked") continue;  // derived above, not settable
    out += ",\"" + escape(name) + "\":";
    out += value ? "true" : "false";
  }
  out += "}";
  out += ",\"points\":[";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Point& p = points_[i];
    if (i != 0) out += ",";
    out += "{\"app\":\"" + escape(p.label.app) + "\"";
    out += ",\"x\":\"" + escape(p.label.x) + "\"";
    out += ",\"series\":\"" + escape(p.label.series) + "\"";
    out += ",\"status\":\"";
    out += p.outcome.status_name();
    out += "\"";
    out += ",\"sim_time\":" + json_double(p.outcome.time);
    out += ",\"node_peak\":" + std::to_string(p.outcome.peak);
    out += ",\"shuffle_bytes\":" + std::to_string(p.outcome.shuffled);
    if (!p.outcome.detail.empty()) {
      out += ",\"detail\":\"" + escape(p.outcome.detail) + "\"";
    }
    if (p.outcome.profile != nullptr) {
      // Balance-relevant point metrics, surfaced for bench_diff.py:
      // the worst single rank's memory high-water and the receive-volume
      // imbalance (max over mean of per-rank received bytes).
      out += ",\"rank_peak\":" +
             std::to_string(p.outcome.profile->memory_peak_max);
      out += ",\"imbalance_ratio\":" +
             json_double(p.outcome.profile->recv_imbalance);
    }
    out += ",\"stats\":" + p.stats_json;
    out += "}";
  }
  out += "],\"tables\":[";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const CapturedTable& table = tables_[t];
    if (t != 0) out += ",";
    out += "{\"title\":\"" + escape(table.title) + "\",\"columns\":[";
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      if (c != 0) out += ",";
      out += "\"" + escape(table.columns[c]) + "\"";
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      if (r != 0) out += ",";
      out += "[";
      for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
        if (c != 0) out += ",";
        out += "\"" + escape(table.rows[r][c]) + "\"";
      }
      out += "]";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void Report::write() {
  if (written_) return;
  written_ = true;
  auto emit = [&](const std::string& name, const std::string& body) {
    const std::string path = dir_ + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  };
  emit("BENCH_" + figure_ + ".json", bench_json());
  if (trace_ && !trace_writer_.empty()) {
    emit("TRACE_" + figure_ + ".json", trace_writer_.json());
  }
}

std::string paper_size(std::uint64_t scaled_bytes) {
  return mutil::format_size(scaled_bytes * 1024);
}

Table::Table(std::string figure, std::string caption,
             std::vector<std::string> columns)
    : columns_(std::move(columns)),
      figure_(std::move(figure)),
      caption_(std::move(caption)) {
  widths_.resize(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    widths_[i] = columns_[i].size();
  }
}

void Table::row(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
  for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    widths_[i] = std::max(widths_[i], cells[i].size());
  }
}

std::string Table::mem_cell(const Outcome& o) {
  if (!o.ok() && o.status != Outcome::Status::kSpilled) return "-";
  return mutil::format_size(o.peak);
}

std::string Table::time_cell(const Outcome& o) {
  if (o.status == Outcome::Status::kOom ||
      o.status == Outcome::Status::kError) {
    return "-";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fs%s", o.time,
                o.status == Outcome::Status::kSpilled ? "*" : "");
  return buf;
}

Table::~Table() {
  std::printf("\n=== %s ===\n%s\n", figure_.c_str(), caption_.c_str());
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths_[i]), cells[i].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::vector<std::string> rule;
  rule.reserve(columns_.size());
  for (const std::size_t w : widths_) rule.emplace_back(w, '-');
  print_row(rule);
  for (const auto& cells : rows_) print_row(cells);
  std::printf(
      "('-' = cannot run in memory; '*' = spilled to the parallel file "
      "system; sizes labelled at paper scale, 1024x ours)\n");
  if (Report* report = Report::active()) {
    report->add_table(figure_, columns_, rows_);
  }
}

mutil::Config parse_cli(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strchr(argv[i], '=') != nullptr) args.emplace_back(argv[i]);
  }
  auto cfg = mutil::Config::from_args(args);
  if (cfg.get_bool("mimir.check", false) || cfg.get_bool("mimir.race", false)) {
    check::enable_global(check::CheckConfig::from(cfg));
  }
  return cfg;
}

bool quick_mode(const mutil::Config& cfg) {
  return !cfg.get_bool("full", false);
}

}  // namespace bench
