#include "check/checker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "check/race.hpp"
#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "stats/registry.hpp"

namespace check {

namespace {

thread_local LifecycleAuditor* t_auditor = nullptr;

/// "alltoallv(seq 12, width 1)" — fingerprint identity for messages.
std::string describe(const CollectiveFingerprint& fp) {
  std::ostringstream oss;
  oss << to_string(fp.op) << "(seq " << fp.seq;
  if (fp.width != 0) oss << ", width " << fp.width;
  if (fp.root >= 0) oss << ", root " << fp.root;
  if (fp.extra != 0) oss << ", op " << fp.extra;
  oss << ')';
  return oss.str();
}

bool same_shape(const CollectiveFingerprint& a,
                const CollectiveFingerprint& b) noexcept {
  return a.op == b.op && a.seq == b.seq && a.width == b.width &&
         a.extra == b.extra && a.root == b.root;
}

}  // namespace

const char* to_string(CollectiveOp op) noexcept {
  switch (op) {
    case CollectiveOp::kNone: return "none";
    case CollectiveOp::kBarrier: return "barrier";
    case CollectiveOp::kAlltoallv: return "alltoallv";
    case CollectiveOp::kAlltoallU64: return "alltoall_u64";
    case CollectiveOp::kAllreduceU64: return "allreduce_u64";
    case CollectiveOp::kAllreduceF64: return "allreduce_f64";
    case CollectiveOp::kAllgatherU64: return "allgather_u64";
    case CollectiveOp::kBcast: return "bcast";
    case CollectiveOp::kBcastU64: return "bcast_u64";
    case CollectiveOp::kGatherv: return "gatherv";
    case CollectiveOp::kSplit: return "split";
    case CollectiveOp::kIalltoallv: return "ialltoallv";
    case CollectiveOp::kIallreduceU64: return "iallreduce_u64";
  }
  return "unknown";
}

CheckConfig CheckConfig::from(const mutil::Config& cfg) {
  CheckConfig out;
  out.watchdog_interval_ms = static_cast<int>(
      cfg.get_int("mimir.check.watchdog_ms", out.watchdog_interval_ms));
  out.watchdog_stalls = static_cast<int>(
      cfg.get_int("mimir.check.stalls", out.watchdog_stalls));
  out.race = cfg.get_bool("mimir.race", out.race);
  return out;
}

bool env_enabled() {
  // Read once per call site is fine: the environment is set before
  // launch and never mutated by this process.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* value = std::getenv("MIMIR_CHECK");
  if (value == nullptr) return false;
  const std::string_view v(value);
  return !(v.empty() || v == "0" || v == "false" || v == "off" || v == "no");
}

// --- LifecycleAuditor ----------------------------------------------------

LifecycleAuditor::LifecycleAuditor(Report& report, int rank)
    : report_(&report), rank_(rank) {}

std::string LifecycleAuditor::current_phase() const {
  const stats::Registry* reg = stats::current();
  return reg != nullptr ? reg->phase_path() : std::string();
}

void LifecycleAuditor::on_page_alloc(const void* block,
                                     std::uint64_t bytes) {
  live_.insert_or_assign(block, PageInfo{bytes, current_phase()});
  live_bytes_ += bytes;
  // Automatic shared-state registration for mimir-race: every container
  // page (KV pages, combine-table arenas, handoff buffers) becomes a
  // tracked region whose alloc/release count as writes. No-op when the
  // rank thread has no race binding.
  race_page_alloc(block, bytes);
}

void LifecycleAuditor::on_page_release(const void* block,
                                       std::uint64_t bytes) {
  // Forward before the local-ownership check: a release of a page this
  // auditor never saw allocated is exactly the cross-thread transfer
  // the race detector must order (its global region table spans ranks).
  race_page_release(block);
  const auto it = live_.find(block);
  if (it == live_.end()) {
    // A page allocated before this auditor was bound (e.g. created on
    // another thread and moved in); not ours to account.
    return;
  }
  live_bytes_ -= it->second.bytes;
  live_.erase(it);
  (void)bytes;
}

void LifecycleAuditor::on_charge(std::uint64_t bytes) {
  balance_ += static_cast<std::int64_t>(bytes);
}

void LifecycleAuditor::on_release(std::uint64_t bytes) {
  balance_ -= static_cast<std::int64_t>(bytes);
  if (balance_ < 0 && !underflow_reported_) {
    underflow_reported_ = true;
    Diagnostic d;
    d.severity = Severity::kError;
    d.analyzer = "lifecycle";
    d.code = "tracker-double-release";
    d.message = "rank released " + std::to_string(bytes) +
                " bytes it never charged (balance went negative); a "
                "container page or buffer was released twice";
    d.ranks = {rank_};
    d.phase = current_phase();
    report_->add(std::move(d));
  }
}

void LifecycleAuditor::audit(const memtrack::Tracker& tracker,
                             std::string_view where) {
  if (balance_ < 0) return;  // already reported as a double release
  if (static_cast<std::uint64_t>(balance_) != tracker.current()) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.analyzer = "lifecycle";
    d.code = "tracker-imbalance";
    d.message = "at " + std::string(where) + ": observed charge balance " +
                std::to_string(balance_) + " bytes != tracker live bytes " +
                std::to_string(tracker.current()) +
                " (memory was charged or released outside the audited "
                "lifecycle)";
    d.ranks = {rank_};
    d.phase = current_phase();
    report_->add(std::move(d));
  }
}

void LifecycleAuditor::final_audit(const memtrack::Tracker& tracker) {
  audit(tracker, "job end");

  if (!live_.empty()) {
    // Group leaked pages by allocating phase: one diagnostic per phase.
    std::map<std::string, std::pair<std::size_t, std::uint64_t>> by_phase;
    for (const auto& [block, info] : live_) {
      auto& [pages, bytes] = by_phase[info.phase];
      ++pages;
      bytes += info.bytes;
    }
    for (const auto& [phase, counts] : by_phase) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.analyzer = "lifecycle";
      d.code = "page-leak";
      d.message = std::to_string(counts.first) + " container page(s), " +
                  std::to_string(counts.second) +
                  " bytes, still live at job end (allocated in phase '" +
                  (phase.empty() ? std::string("<none>") : phase) + "')";
      d.ranks = {rank_};
      d.phase = phase;
      report_->add(std::move(d));
    }
  }

  const std::int64_t residue =
      balance_ - static_cast<std::int64_t>(live_bytes_);
  if (residue > 0) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.analyzer = "lifecycle";
    d.code = "charge-leak";
    d.message = std::to_string(residue) +
                " bytes charged to the tracker but never released "
                "(outside container pages)";
    d.ranks = {rank_};
    report_->add(std::move(d));
  }
}

// --- JobChecker ----------------------------------------------------------

JobChecker::JobChecker(Report& report, CheckConfig cfg)
    : report_(&report), cfg_(cfg) {
  if (cfg_.race) {
    race_ = std::make_unique<RaceDetector>(report, cfg_.max_region_reports);
  }
}

JobChecker::~JobChecker() { stop_watchdog(); }

void JobChecker::reset(int nranks) {
  stop_watchdog();
  nranks_ = nranks;
  if (race_ != nullptr) race_->reset(nranks);
  {
    const std::scoped_lock lock(block_mutex_);
    blocked_.assign(static_cast<std::size_t>(nranks), BlockedState{});
    block_counter_ = 0;
  }
  auditors_.clear();
  auditors_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auditors_.push_back(std::make_unique<LifecycleAuditor>(*report_, r));
  }
}

LifecycleAuditor& JobChecker::auditor(int global_rank) {
  return *auditors_[static_cast<std::size_t>(global_rank)];
}

// -- collective verifier --

void JobChecker::verify_collective(
    std::span<const CollectiveFingerprint> fps,
    std::span<const int> global_ranks) {
  if (fps.empty()) return;

  // Majority fingerprint shape; ties resolve to the lowest rank's.
  std::size_t majority = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    std::size_t votes = 0;
    for (const CollectiveFingerprint& other : fps) {
      if (same_shape(fps[i], other)) ++votes;
    }
    if (votes > best) {
      best = votes;
      majority = i;
    }
  }
  const CollectiveFingerprint& expect = fps[majority];

  std::vector<int> divergent;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (!same_shape(fps[i], expect)) {
      divergent.push_back(global_ranks[i]);
    }
  }
  if (!divergent.empty()) {
    std::ostringstream oss;
    oss << "collective mismatch: " << best << "/" << fps.size()
        << " ranks entered " << describe(expect);
    for (std::size_t i = 0; i < fps.size(); ++i) {
      if (same_shape(fps[i], expect)) continue;
      oss << "; rank " << global_ranks[i] << " entered "
          << describe(fps[i]);
      if (!fps[i].phase.empty()) oss << " in phase " << fps[i].phase;
    }
    Diagnostic d;
    d.severity = Severity::kError;
    d.analyzer = "collective";
    d.code = "collective-mismatch";
    d.message = oss.str();
    d.ranks = std::move(divergent);
    d.phase = expect.phase;
    d.sim_time = expect.sim_time;
    const std::string text = d.text();
    report_->add(std::move(d));
    throw mutil::CommError("mimir-check: " + text);
  }

  if (expect.op == CollectiveOp::kBcast) {
    const std::uint64_t root_bytes =
        fps[static_cast<std::size_t>(expect.root)].bytes;
    std::vector<int> bad;
    for (std::size_t i = 0; i < fps.size(); ++i) {
      if (fps[i].bytes != root_bytes) bad.push_back(global_ranks[i]);
    }
    if (!bad.empty()) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.analyzer = "collective";
      d.code = "bcast-size-mismatch";
      d.message = "bcast buffer size disagrees with root rank " +
                  std::to_string(global_ranks[static_cast<std::size_t>(
                      expect.root)]) +
                  " (" + std::to_string(root_bytes) + " bytes)";
      d.ranks = std::move(bad);
      d.phase = expect.phase;
      d.sim_time = expect.sim_time;
      const std::string text = d.text();
      report_->add(std::move(d));
      throw mutil::CommError("mimir-check: " + text);
    }
  }

  if (expect.op == CollectiveOp::kAlltoallv) {
    // The classic pairwise mismatch: what i advertises for j must equal
    // what j expects from i.
    int reported = 0;
    for (std::size_t i = 0; i < fps.size(); ++i) {
      for (std::size_t j = 0; j < fps.size(); ++j) {
        const std::uint64_t advertised = fps[i].send_counts[j];
        const std::uint64_t expected = fps[j].recv_counts[i];
        if (advertised == expected) continue;
        if (reported < cfg_.max_pairwise_reports) {
          Diagnostic d;
          d.severity = Severity::kError;
          d.analyzer = "collective";
          d.code = "alltoallv-count-mismatch";
          d.message =
              "rank " + std::to_string(global_ranks[i]) + "'s sendcounts[" +
              std::to_string(global_ranks[j]) + "] = " +
              std::to_string(advertised) + " but rank " +
              std::to_string(global_ranks[j]) + "'s recvcounts[" +
              std::to_string(global_ranks[i]) + "] = " +
              std::to_string(expected);
          d.ranks = {global_ranks[i], global_ranks[j]};
          d.phase = fps[j].phase;
          d.sim_time = expect.sim_time;
          report_->add(std::move(d));
        }
        ++reported;
      }
    }
    if (reported != 0) {
      throw mutil::CommError(
          "mimir-check: alltoallv count mismatch (" +
          std::to_string(reported) + " pair(s) disagree; see check report)");
    }
  }
}

void JobChecker::local_error(int global_rank, std::string_view code,
                             std::string_view message, double sim_time) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.analyzer = "collective";
  d.code.assign(code);
  d.message.assign(message);
  d.ranks = {global_rank};
  const stats::Registry* reg = stats::current();
  if (reg != nullptr) d.phase = reg->phase_path();
  d.sim_time = sim_time;
  report_->add(std::move(d));
}

// -- progress watchdog --

BlockedState JobChecker::block_enter(int global_rank, std::string what,
                                     std::uint64_t seq, double sim_time) {
  BlockedState next;
  next.kind = BlockedState::Kind::kCollective;
  next.what = std::move(what);
  next.seq = seq;
  next.sim_time = sim_time;
  const stats::Registry* reg = stats::current();
  if (reg != nullptr) next.phase = reg->phase_path();

  const std::scoped_lock lock(block_mutex_);
  next.id = ++block_counter_;
  auto& slot = blocked_[static_cast<std::size_t>(global_rank)];
  BlockedState previous = std::move(slot);
  slot = std::move(next);
  return previous;
}

void JobChecker::block_exit(int global_rank, BlockedState previous) {
  const std::scoped_lock lock(block_mutex_);
  // A fresh id: leaving-and-restoring is progress, not a stall.
  previous.id = ++block_counter_;
  blocked_[static_cast<std::size_t>(global_rank)] = std::move(previous);
}

void JobChecker::mark_released(std::span<const int> global_ranks,
                               std::string_view what, std::uint64_t seq) {
  const std::scoped_lock lock(block_mutex_);
  for (const int rank : global_ranks) {
    BlockedState& state = blocked_[static_cast<std::size_t>(rank)];
    if (state.kind != BlockedState::Kind::kCollective) continue;
    if (!what.empty() && (state.what != what || state.seq != seq)) continue;
    state.released = true;
  }
}

void JobChecker::rank_finished(int global_rank) {
  const std::scoped_lock lock(block_mutex_);
  auto& slot = blocked_[static_cast<std::size_t>(global_rank)];
  slot = BlockedState{};
  slot.kind = BlockedState::Kind::kFinished;
  slot.id = ++block_counter_;
}

void JobChecker::start_watchdog(
    std::function<void(const std::string&)> abort_job) {
  stop_watchdog();
  {
    const std::scoped_lock lock(wd_mutex_);
    wd_stop_ = false;
    abort_job_ = std::move(abort_job);
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void JobChecker::stop_watchdog() {
  {
    const std::scoped_lock lock(wd_mutex_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void JobChecker::watchdog_loop() {
  std::vector<std::uint64_t> previous_ids;
  int stable = 0;
  std::unique_lock lock(wd_mutex_);
  for (;;) {
    const bool stopped = wd_cv_.wait_for(
        lock, std::chrono::milliseconds(cfg_.watchdog_interval_ms),
        [this] { return wd_stop_; });
    if (stopped) return;

    std::vector<BlockedState> snapshot;
    {
      const std::scoped_lock block_lock(block_mutex_);
      snapshot = blocked_;
    }
    bool all_waiting = !snapshot.empty();
    bool any_blocked = false;
    std::vector<std::uint64_t> ids;
    ids.reserve(snapshot.size());
    for (const BlockedState& s : snapshot) {
      if (s.kind == BlockedState::Kind::kNone || s.released) {
        all_waiting = false;
      }
      if (s.kind == BlockedState::Kind::kCollective) any_blocked = true;
      ids.push_back(s.id);
    }

    if (all_waiting && any_blocked && ids == previous_ids) {
      if (++stable >= cfg_.watchdog_stalls) {
        const std::string message = report_deadlock(snapshot);
        const auto abort_fn = abort_job_;
        lock.unlock();
        if (abort_fn) abort_fn(message);
        return;
      }
    } else {
      stable = 0;
    }
    previous_ids = std::move(ids);
  }
}

std::string JobChecker::report_deadlock(
    const std::vector<BlockedState>& snapshot) {
  const int n = static_cast<int>(snapshot.size());

  // Wait-for edges: a blocked rank waits on every rank not currently
  // inside the same collective entry.
  std::vector<std::vector<int>> waits_on(snapshot.size());
  for (int r = 0; r < n; ++r) {
    const BlockedState& s = snapshot[static_cast<std::size_t>(r)];
    if (s.kind != BlockedState::Kind::kCollective) continue;
    for (int o = 0; o < n; ++o) {
      if (o == r) continue;
      const BlockedState& other = snapshot[static_cast<std::size_t>(o)];
      const bool same_entry = other.kind == BlockedState::Kind::kCollective &&
                              other.what == s.what && other.seq == s.seq;
      if (!same_entry) waits_on[static_cast<std::size_t>(r)].push_back(o);
    }
  }

  // Find one wait-for cycle by walking first edges (colors DFS).
  std::vector<int> cycle;
  {
    std::vector<int> color(snapshot.size(), 0);  // 0 new, 1 open, 2 done
    std::vector<int> stack;
    const std::function<bool(int)> dfs = [&](int r) {
      color[static_cast<std::size_t>(r)] = 1;
      stack.push_back(r);
      for (const int next : waits_on[static_cast<std::size_t>(r)]) {
        if (color[static_cast<std::size_t>(next)] == 1) {
          const auto begin =
              std::find(stack.begin(), stack.end(), next);
          cycle.assign(begin, stack.end());
          return true;
        }
        if (color[static_cast<std::size_t>(next)] == 0 && dfs(next)) {
          return true;
        }
      }
      stack.pop_back();
      color[static_cast<std::size_t>(r)] = 2;
      return false;
    };
    for (int r = 0; r < n && cycle.empty(); ++r) {
      if (color[static_cast<std::size_t>(r)] == 0) (void)dfs(r);
    }
  }

  std::ostringstream oss;
  oss << "no rank made progress for "
      << cfg_.watchdog_interval_ms * cfg_.watchdog_stalls << " ms;";
  double latest = 0.0;
  std::vector<int> blocked_ranks;
  std::string phase;
  for (int r = 0; r < n; ++r) {
    const BlockedState& s = snapshot[static_cast<std::size_t>(r)];
    if (s.kind == BlockedState::Kind::kFinished) {
      oss << " rank " << r << ": finished;";
      continue;
    }
    blocked_ranks.push_back(r);
    latest = std::max(latest, s.sim_time);
    if (phase.empty()) phase = s.phase;
    oss << " rank " << r << ": blocked in " << s.what;
    if (!s.phase.empty()) oss << " in phase " << s.phase;
    oss << " since t=" << s.sim_time << "s;";
  }
  if (!cycle.empty()) {
    oss << " wait-for cycle:";
    for (const int r : cycle) oss << ' ' << r << " ->";
    oss << ' ' << cycle.front();
  }

  Diagnostic d;
  d.severity = Severity::kError;
  d.analyzer = "progress";
  d.code = "deadlock";
  d.message = oss.str();
  d.ranks = cycle.empty() ? blocked_ranks : cycle;
  std::sort(d.ranks.begin(), d.ranks.end());
  d.phase = phase;
  d.sim_time = latest;
  const std::string text = d.text();
  report_->add(std::move(d));
  return text;
}

// --- process-global checker ----------------------------------------------

Report& global_report() {
  static Report report;
  return report;
}

namespace {
std::mutex g_mutex;
std::unique_ptr<JobChecker> g_checker;      // NOLINT(cert-err58-cpp)
bool g_env_checked = false;
}  // namespace

void enable_global(CheckConfig cfg) {
  const std::scoped_lock lock(g_mutex);
  if (g_checker == nullptr) {
    g_checker = std::make_unique<JobChecker>(global_report(), cfg);
  }
}

JobChecker* global_checker() {
  const std::scoped_lock lock(g_mutex);
  if (!g_env_checked) {
    g_env_checked = true;
    // MIMIR_RACE implies checking: the race detector rides on the same
    // per-job analyzer lifecycle as the other analyzers.
    if (g_checker == nullptr && (env_enabled() || race_env_enabled())) {
      CheckConfig cfg;
      cfg.race = race_env_enabled();
      g_checker = std::make_unique<JobChecker>(global_report(), cfg);
    }
  }
  return g_checker.get();
}

// --- thread-local auditor binding ----------------------------------------

LifecycleAuditor* current_auditor() noexcept { return t_auditor; }

void audit_point(const memtrack::Tracker& tracker, std::string_view where) {
  if (t_auditor != nullptr) t_auditor->audit(tracker, where);
}

ScopedAudit::ScopedAudit(LifecycleAuditor* auditor) noexcept
    : previous_(t_auditor), observer_(auditor) {
  t_auditor = auditor;
}

ScopedAudit::~ScopedAudit() { t_auditor = previous_; }

}  // namespace check
