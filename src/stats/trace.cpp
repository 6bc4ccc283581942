#include "stats/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "stats/jsonlite.hpp"

namespace stats {

namespace {

void append_kv_u64(std::string& out, const char* key, std::uint64_t value,
                   bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, *first ? "" : ",",
                key, value);
  out += buf;
  *first = false;
}

void append_kv_f64(std::string& out, const char* key, double value,
                   bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", *first ? "" : ",", key,
                value);
  out += buf;
  *first = false;
}

void append_f64_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  out += ']';
}

constexpr double kMicros = 1e6;  // simulated seconds -> trace microseconds

}  // namespace

std::uint64_t Summary::traffic_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& row : traffic) {
    for (const std::uint64_t cell : row) total += cell;
  }
  return total;
}

std::string Summary::json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    append_kv_u64(out, jsonlite::escape(name).c_str(), value, &first);
  }
  out += "},\"timers\":{";
  first = true;
  for (const auto& [name, value] : timers) {
    append_kv_f64(out, jsonlite::escape(name).c_str(), value, &first);
  }
  out += "},\"phases\":{";
  first = true;
  for (const auto& [name, seconds] : phase_seconds) {
    out += first ? "" : ",";
    first = false;
    out += '"';
    out += jsonlite::escape(name);
    out += "\":{";
    bool inner = true;
    append_kv_f64(out, "seconds", seconds, &inner);
    const auto peak = phase_mem_peak.find(name);
    append_kv_u64(out, "mem_peak",
                  peak == phase_mem_peak.end() ? 0 : peak->second, &inner);
    if (const auto attr = phase_attr.find(name); attr != phase_attr.end()) {
      const PhaseAttr& a = attr->second;
      append_kv_f64(out, "wait_seconds", a.wait_seconds, &inner);
      append_kv_f64(out, "compute_seconds", a.compute_seconds, &inner);
      append_kv_f64(out, "overlap_seconds", a.overlap_seconds, &inner);
      append_kv_f64(out, "io_wait_seconds", a.io_wait_seconds, &inner);
      append_kv_f64(out, "io_hidden_seconds", a.io_hidden_seconds, &inner);
      append_kv_f64(out, "imbalance", a.imbalance, &inner);
      out += ",\"straggler\":" + std::to_string(a.straggler);
      out += ",\"per_rank_compute\":";
      append_f64_array(out, a.per_rank_compute);
      out += ",\"per_rank_wait\":";
      append_f64_array(out, a.per_rank_wait);
      out += ",\"per_rank_overlap\":";
      append_f64_array(out, a.per_rank_overlap);
    }
    out += "}";
  }
  out += "},\"traffic\":{";
  {
    bool inner = true;
    append_kv_u64(out, "total_bytes", traffic_total(), &inner);
    append_kv_f64(out, "recv_imbalance", recv_imbalance, &inner);
  }
  out += ",\"recv_per_rank\":[";
  for (std::size_t r = 0; r < recv_per_rank.size(); ++r) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, r == 0 ? "" : ",",
                  recv_per_rank[r]);
    out += buf;
  }
  out += "],\"matrix\":[";
  for (std::size_t src = 0; src < traffic.size(); ++src) {
    out += src == 0 ? "[" : ",[";
    for (std::size_t dst = 0; dst < traffic[src].size(); ++dst) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%s%" PRIu64, dst == 0 ? "" : ",",
                    traffic[src][dst]);
      out += buf;
    }
    out += "]";
  }
  out += "]}";
  out += ",\"wait\":{";
  {
    bool inner = true;
    append_kv_f64(out, "total_seconds", wait_total, &inner);
  }
  out += ",\"per_rank\":";
  append_f64_array(out, wait_per_rank);
  out += "},\"overlap\":{";
  {
    bool inner = true;
    append_kv_f64(out, "total_seconds", overlap_total, &inner);
  }
  out += ",\"per_rank\":";
  append_f64_array(out, overlap_per_rank);
  out += "},\"io\":{";
  {
    bool inner = true;
    append_kv_f64(out, "wait_seconds", io_wait_total, &inner);
    append_kv_f64(out, "hidden_seconds", io_hidden_total, &inner);
  }
  out += ",\"per_rank_wait\":";
  append_f64_array(out, io_wait_per_rank);
  out += ",\"per_rank_hidden\":";
  append_f64_array(out, io_hidden_per_rank);
  out += "},\"memory\":{";
  {
    bool inner = true;
    append_kv_u64(out, "current_total", memory_current_total, &inner);
    append_kv_u64(out, "peak_max", memory_peak_max, &inner);
  }
  out += ",\"components\":{";
  first = true;
  for (const auto& [tag, mem] : memory_components) {
    out += first ? "" : ",";
    first = false;
    out += '"';
    out += jsonlite::escape(tag);
    out += "\":{";
    bool inner = true;
    append_kv_u64(out, "current", mem.current, &inner);
    append_kv_u64(out, "peak", mem.peak, &inner);
    out += "}";
  }
  out += "}}";
  // Pre-serialized extra sections (already complete JSON values).
  for (const auto& [name, raw] : sections) {
    out += ",\"" + jsonlite::escape(name) + "\":" + raw;
  }
  out += "}";
  return out;
}

void Collector::reset(int nranks) {
  registries_.clear();
  registries_.resize(static_cast<std::size_t>(std::max(nranks, 0)));
  sections_.clear();
}

void Collector::set_section(std::string_view name, std::string json) {
  sections_.insert_or_assign(std::string(name), std::move(json));
}

Summary Collector::summary() const {
  Summary out;
  const std::size_t n = registries_.size();
  out.traffic.assign(n, std::vector<std::uint64_t>(n, 0));
  out.wait_per_rank.assign(n, 0.0);
  out.overlap_per_rank.assign(n, 0.0);
  out.io_wait_per_rank.assign(n, 0.0);
  out.io_hidden_per_rank.assign(n, 0.0);
  out.sections = sections_;
  // Per-rank totals per phase name, folded into the cross-rank max and
  // into the per-phase attribution arrays.
  std::vector<std::map<std::string, double, std::less<>>> totals(n);
  std::vector<std::map<std::string, double, std::less<>>> waits(n);
  std::vector<std::map<std::string, double, std::less<>>> overlaps(n);
  std::vector<std::map<std::string, double, std::less<>>> io_waits(n);
  std::vector<std::map<std::string, double, std::less<>>> io_hiddens(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Registry& reg = registries_[r];
    for (const auto& [name, value] : reg.counters()) {
      out.counters[name] += value;
    }
    for (const auto& [name, value] : reg.timers()) {
      out.timers[name] += value;
    }
    for (const PhaseRecord& phase : reg.phases()) {
      totals[r][phase.name] += phase.seconds();
      waits[r][phase.name] += phase.wait;
      overlaps[r][phase.name] += phase.overlap;
      io_waits[r][phase.name] += phase.io_wait;
      io_hiddens[r][phase.name] += phase.io_hidden;
      auto& peak = out.phase_mem_peak[phase.name];
      peak = std::max(peak, phase.mem_peak);
    }
    for (const auto& [name, seconds] : totals[r]) {
      auto& slot = out.phase_seconds[name];
      slot = std::max(slot, seconds);
    }
    const auto& row = reg.traffic();
    for (std::size_t d = 0; d < row.size() && d < n; ++d) {
      out.traffic[r][d] = row[d];
    }
    out.wait_per_rank[r] = reg.wait_total();
    out.wait_total += reg.wait_total();
    out.overlap_per_rank[r] = reg.overlap_total();
    out.overlap_total += reg.overlap_total();
    out.io_wait_per_rank[r] = reg.io_wait_total();
    out.io_wait_total += reg.io_wait_total();
    out.io_hidden_per_rank[r] = reg.io_hidden_total();
    out.io_hidden_total += reg.io_hidden_total();
    // Tagged memory: components sum rank currents; peaks are the max
    // over ranks of each tag's (and the rank's) high-water.
    const MemorySnapshot& mem = reg.memory();
    if (mem.captured) {
      out.memory_current_total += mem.current;
      out.memory_peak_max = std::max(out.memory_peak_max, mem.peak);
      for (const MemorySnapshot::Component& comp : mem.components) {
        ComponentMem& slot = out.memory_components[comp.tag];
        slot.current += comp.current;
        slot.peak = std::max(slot.peak, comp.peak);
      }
    }
  }
  // Receive-volume view of the traffic matrix: column sums and their
  // max-over-mean imbalance (skewed keys concentrate received bytes).
  out.recv_per_rank.assign(n, 0);
  std::uint64_t recv_total = 0;
  std::uint64_t recv_max = 0;
  for (std::size_t d = 0; d < n; ++d) {
    std::uint64_t col = 0;
    for (std::size_t s = 0; s < n; ++s) col += out.traffic[s][d];
    out.recv_per_rank[d] = col;
    recv_total += col;
    recv_max = std::max(recv_max, col);
  }
  if (recv_total > 0 && n > 0) {
    const double mean =
        static_cast<double>(recv_total) / static_cast<double>(n);
    out.recv_imbalance = static_cast<double>(recv_max) / mean;
  }
  // Compute/wait attribution per phase name: compute_r = total_r -
  // wait_r; the straggler is the rank with the largest compute share
  // and imbalance is max-over-mean of the compute shares.
  for (const auto& [name, seconds] : out.phase_seconds) {
    PhaseAttr attr;
    attr.per_rank_compute.assign(n, 0.0);
    attr.per_rank_wait.assign(n, 0.0);
    attr.per_rank_overlap.assign(n, 0.0);
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const auto total_it = totals[r].find(name);
      const double total =
          total_it == totals[r].end() ? 0.0 : total_it->second;
      const auto wait_it = waits[r].find(name);
      const double wait = wait_it == waits[r].end() ? 0.0 : wait_it->second;
      const auto overlap_it = overlaps[r].find(name);
      const double overlap =
          overlap_it == overlaps[r].end() ? 0.0 : overlap_it->second;
      const auto io_wait_it = io_waits[r].find(name);
      const double io_wait =
          io_wait_it == io_waits[r].end() ? 0.0 : io_wait_it->second;
      const auto io_hidden_it = io_hiddens[r].find(name);
      const double io_hidden =
          io_hidden_it == io_hiddens[r].end() ? 0.0 : io_hidden_it->second;
      const double compute = total - wait;
      attr.per_rank_compute[r] = compute;
      attr.per_rank_wait[r] = wait;
      attr.per_rank_overlap[r] = overlap;
      attr.wait_seconds = std::max(attr.wait_seconds, wait);
      attr.overlap_seconds = std::max(attr.overlap_seconds, overlap);
      attr.io_wait_seconds = std::max(attr.io_wait_seconds, io_wait);
      attr.io_hidden_seconds = std::max(attr.io_hidden_seconds, io_hidden);
      sum += compute;
      if (compute > attr.compute_seconds || attr.straggler < 0) {
        attr.compute_seconds = std::max(compute, 0.0);
        attr.straggler = static_cast<int>(r);
      }
    }
    const double mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
    attr.imbalance = mean > 0.0 ? attr.compute_seconds / mean : 1.0;
    out.phase_attr.emplace(name, std::move(attr));
  }
  return out;
}

std::string Collector::trace_json() const {
  TraceWriter writer;
  writer.add_run(*this, "job");
  return writer.json();
}

void TraceWriter::add_run(const Collector& collector,
                          std::string_view process_name) {
  const int pid = runs_++;
  char buf[256];
  auto event = [&](const char* text) {
    if (!events_.empty()) events_ += ",\n";
    events_ += text;
  };

  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":"
                "\"process_name\",\"args\":{\"name\":\"%s\"}}",
                pid, jsonlite::escape(process_name).c_str());
  event(buf);

  for (int r = 0; r < collector.ranks(); ++r) {
    const Registry& reg = collector.rank(r);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"rank %d\"}}",
                  pid, r, r);
    event(buf);
    for (const PhaseRecord& phase : reg.phases()) {
      std::snprintf(
          buf, sizeof(buf),
          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
          "\"ts\":%.6f,\"dur\":%.6f,\"args\":{\"depth\":%d,"
          "\"mem_begin\":%" PRIu64 ",\"mem_end\":%" PRIu64
          ",\"mem_peak\":%" PRIu64 "}}",
          pid, r, jsonlite::escape(phase.name).c_str(),
          phase.begin * kMicros, phase.seconds() * kMicros, phase.depth,
          phase.mem_begin, phase.mem_end, phase.mem_peak);
      event(buf);
    }
    for (const InstantRecord& mark : reg.instants()) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,"
                    "\"name\":\"%s\",\"ts\":%.6f}",
                    pid, r, jsonlite::escape(mark.name).c_str(),
                    mark.time * kMicros);
      event(buf);
    }
    // One cumulative-wait counter track per rank (the name carries the
    // rank so tracks never merge across tids in the viewer).
    double cumulative = 0.0;
    for (const WaitRecord& wait : reg.waits()) {
      cumulative += wait.seconds;
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"name\":"
                    "\"wait.rank%d\",\"ts\":%.6f,\"args\":{\"seconds\":"
                    "%.9g}}",
                    pid, r, r, wait.time * kMicros, cumulative);
      event(buf);
    }
    // And a cumulative hidden-communication track: how many seconds of
    // collective time non-blocking overlap kept off the critical path.
    double hidden = 0.0;
    for (const WaitRecord& overlap : reg.overlaps()) {
      hidden += overlap.seconds;
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"name\":"
                    "\"overlap.rank%d\",\"ts\":%.6f,\"args\":{\"seconds\":"
                    "%.9g}}",
                    pid, r, r, overlap.time * kMicros, hidden);
      event(buf);
    }
    // Cumulative hidden-I/O track: PFS cost the async pipeline kept
    // under compute instead of stalling the rank.
    double io_hidden = 0.0;
    for (const WaitRecord& io : reg.io_hiddens()) {
      io_hidden += io.seconds;
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"name\":"
                    "\"io.rank%d\",\"ts\":%.6f,\"args\":{\"seconds\":"
                    "%.9g}}",
                    pid, r, r, io.time * kMicros, io_hidden);
      event(buf);
    }
  }
}

std::string TraceWriter::json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += events_;
  out += "\n]}\n";
  return out;
}

}  // namespace stats
