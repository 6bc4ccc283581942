#include "check/race.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "check/checker.hpp"
#include "memtrack/tracker.hpp"
#include "mutil/hash.hpp"
#include "simtime/clock.hpp"
#include "stats/registry.hpp"

namespace check {

namespace {

// Per rank-thread binding installed by simmpi::run (via ScopedRaceRank).
thread_local RaceDetector* t_detector = nullptr;
thread_local int t_rank = -1;
thread_local const simtime::Clock* t_clock = nullptr;

std::string bound_phase() {
  const stats::Registry* reg = stats::current();
  return reg != nullptr ? reg->phase_path() : std::string();
}

double bound_sim_time() noexcept {
  return t_clock != nullptr ? t_clock->now() : 0.0;
}

std::string describe_site(const AccessSite& site) {
  std::ostringstream oss;
  oss << "rank " << site.rank << (site.write ? " wrote" : " read");
  if (!site.phase.empty()) oss << " in phase '" << site.phase << "'";
  oss << " at t=" << site.sim_time << "s";
  return oss.str();
}

std::uint64_t fold(std::uint64_t h, std::uint64_t x) noexcept {
  return mutil::mix64(h ^ x);
}

}  // namespace

std::uint64_t DeterminismDigest::combined() const noexcept {
  std::uint64_t h = 0x6d696d6972ULL;  // "mimir"
  for (const auto& rank : ranks) {
    for (const DigestEntry& e : rank) h = fold(h, e.hash);
    h = fold(h, rank.size());
  }
  return h;
}

// --- RaceDetector ---------------------------------------------------------

RaceDetector::RaceDetector(Report& report, int max_region_reports)
    : report_(&report), max_region_reports_(max_region_reports) {}

void RaceDetector::reset(int nranks) {
  const std::scoped_lock lock(mutex_);
  nranks_ = nranks;
  clocks_.assign(static_cast<std::size_t>(nranks), VectorClock(nranks));
  for (int r = 0; r < nranks; ++r) {
    clocks_[static_cast<std::size_t>(r)].tick(r);
  }
  regions_.clear();
  handoffs_.clear();
  races_ = 0;
  digests_.assign(static_cast<std::size_t>(nranks), {});
}

void RaceDetector::collective_sync(std::span<const int> global_ranks) {
  const std::scoped_lock lock(mutex_);
  VectorClock joined(nranks_);
  for (const int g : global_ranks) {
    joined.join(clocks_[static_cast<std::size_t>(g)]);
  }
  for (const int g : global_ranks) {
    auto& clock = clocks_[static_cast<std::size_t>(g)];
    clock.join(joined);
    clock.tick(g);
  }
}

void RaceDetector::handoff_publish(int global_rank, std::uint64_t key) {
  const std::scoped_lock lock(mutex_);
  auto& clock = clocks_[static_cast<std::size_t>(global_rank)];
  auto [it, inserted] = handoffs_.try_emplace(key, VectorClock(nranks_));
  it->second.join(clock);
  clock.tick(global_rank);
}

void RaceDetector::handoff_acquire(int global_rank, std::uint64_t key) {
  const std::scoped_lock lock(mutex_);
  const auto it = handoffs_.find(key);
  if (it == handoffs_.end()) return;
  clocks_[static_cast<std::size_t>(global_rank)].join(it->second);
}

// --- non-blocking collective buffer freeze ---------------------------------

void RaceDetector::nb_initiate(const void* base, int global_rank,
                               bool op_writes, std::string_view what,
                               double sim_time, std::string phase) {
  // Initiating captures a send buffer's contents: count it as a read so
  // it orders against earlier writes like any other access.
  if (!op_writes) access(base, global_rank, false, sim_time, phase);
  const std::scoped_lock lock(mutex_);
  const auto it = regions_.find(base);
  if (it == regions_.end()) return;
  RegionState& region = it->second;
  region.frozen = true;
  region.frozen_op_writes = op_writes;
  region.frozen_what.assign(what);
  region.frozen_site.rank = global_rank;
  region.frozen_site.epoch =
      clocks_[static_cast<std::size_t>(global_rank)][global_rank];
  region.frozen_site.sim_time = sim_time;
  region.frozen_site.phase = std::move(phase);
  region.frozen_site.write = op_writes;
}

void RaceDetector::nb_complete(const void* base, int global_rank,
                               double sim_time, std::string phase) {
  bool op_writes = false;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = regions_.find(base);
    if (it == regions_.end()) return;
    op_writes = it->second.frozen_op_writes;
    it->second.frozen = false;
    it->second.frozen_what.clear();
    it->second.frozen_site = AccessSite{};
  }
  access(base, global_rank, op_writes, sim_time, std::move(phase));
}

// --- registered shared state ----------------------------------------------

void RaceDetector::region_register(const void* base, std::uint64_t bytes,
                                   std::string name) {
  const std::scoped_lock lock(mutex_);
  RegionState state;
  state.name = std::move(name);
  state.bytes = bytes;
  state.reads.assign(static_cast<std::size_t>(nranks_), AccessSite{});
  regions_.insert_or_assign(base, std::move(state));
}

void RaceDetector::region_unregister(const void* base) {
  const std::scoped_lock lock(mutex_);
  regions_.erase(base);
}

bool RaceDetector::ordered_before(const AccessSite& site,
                                  const VectorClock& clock) const noexcept {
  // The prior access happens-before the current one iff the current
  // rank's clock has caught up with the accessor's epoch at that access.
  return site.rank < 0 || clock[site.rank] >= site.epoch;
}

void RaceDetector::report_race(RegionState& region,
                               const AccessSite& previous,
                               const AccessSite& current) {
  ++races_;
  if (region.reports >= max_region_reports_) return;
  ++region.reports;

  const bool both_writes = previous.write && current.write;
  Diagnostic d;
  // Races are diagnostics, not errors that abort the job: the detector
  // must stay accounting-only, and a race does not change simulated
  // results (ranks are real threads, the access already happened).
  d.severity = Severity::kError;
  d.analyzer = "race";
  d.code = both_writes ? "write-write-race" : "read-write-race";
  std::ostringstream oss;
  oss << (both_writes ? "write-write" : "read-write") << " race on '"
      << region.name << "' (" << region.bytes << " bytes): "
      << describe_site(current) << " with no happens-before edge after "
      << describe_site(previous)
      << " (no barrier, collective, or handoff orders the two accesses)";
  d.message = oss.str();
  d.ranks = {previous.rank, current.rank};
  std::sort(d.ranks.begin(), d.ranks.end());
  d.phase = current.phase;
  d.sim_time = current.sim_time;
  report_->add(std::move(d));
}

void RaceDetector::report_frozen(RegionState& region,
                                 const AccessSite& current) {
  ++races_;
  if (region.reports >= max_region_reports_) return;
  ++region.reports;

  Diagnostic d;
  d.severity = Severity::kError;
  d.analyzer = "race";
  d.code = current.write ? "write-after-initiate" : "read-after-initiate";
  std::ostringstream oss;
  oss << (current.write ? "write to '" : "read of '") << region.name
      << "' (" << region.bytes << " bytes) while a non-blocking "
      << region.frozen_what << " is in flight: " << describe_site(current)
      << "; rank " << region.frozen_site.rank
      << " initiated the operation";
  if (!region.frozen_site.phase.empty()) {
    oss << " in phase '" << region.frozen_site.phase << "'";
  }
  oss << " at t=" << region.frozen_site.sim_time
      << "s and has not completed it (the buffer belongs to the "
         "collective until Request::wait returns)";
  d.message = oss.str();
  d.ranks = {region.frozen_site.rank, current.rank};
  std::sort(d.ranks.begin(), d.ranks.end());
  d.ranks.erase(std::unique(d.ranks.begin(), d.ranks.end()),
                d.ranks.end());
  d.phase = current.phase;
  d.sim_time = current.sim_time;
  report_->add(std::move(d));
}

void RaceDetector::access(const void* base, int global_rank, bool write,
                          double sim_time, std::string phase) {
  const std::scoped_lock lock(mutex_);
  const auto it = regions_.find(base);
  if (it == regions_.end()) return;
  RegionState& region = it->second;
  const VectorClock& clock = clocks_[static_cast<std::size_t>(global_rank)];

  AccessSite cur;
  cur.rank = global_rank;
  cur.epoch = clock[global_rank];
  cur.sim_time = sim_time;
  cur.phase = std::move(phase);
  cur.write = write;

  if (region.frozen && (write || region.frozen_op_writes)) {
    report_frozen(region, cur);
  }

  // FastTrack epoch rule: every access must happen-after the last
  // write; a write must additionally happen-after every rank's last
  // read. Same-rank accesses are ordered by program order.
  const AccessSite& w = region.last_write;
  if (w.rank >= 0 && w.rank != global_rank && !ordered_before(w, clock)) {
    report_race(region, w, cur);
  } else if (write) {
    for (const AccessSite& r : region.reads) {
      if (r.rank >= 0 && r.rank != global_rank &&
          !ordered_before(r, clock)) {
        report_race(region, r, cur);
        break;
      }
    }
  }

  if (write) {
    region.last_write = std::move(cur);
    // A well-ordered write subsumes all prior reads; racing reads were
    // already reported, so either way the read set restarts here.
    for (AccessSite& r : region.reads) r = AccessSite{};
  } else {
    region.reads[static_cast<std::size_t>(global_rank)] = std::move(cur);
  }
}

void RaceDetector::ensure_and_access(const void* base, std::uint64_t bytes,
                                     std::string_view name, int global_rank,
                                     bool write, double sim_time,
                                     std::string phase) {
  {
    const std::scoped_lock lock(mutex_);
    if (regions_.find(base) == regions_.end()) {
      RegionState state;
      state.name.assign(name);
      state.bytes = bytes;
      state.reads.assign(static_cast<std::size_t>(nranks_), AccessSite{});
      regions_.emplace(base, std::move(state));
    }
  }
  access(base, global_rank, write, sim_time, std::move(phase));
}

void RaceDetector::page_alloc(int global_rank, const void* block,
                              std::uint64_t bytes, std::string_view tag,
                              double sim_time, std::string phase) {
  // A fresh allocation starts a new region history: the allocator (the
  // host heap) orders reuse of the address internally, which is not a
  // user-visible happens-before violation.
  std::string name = "page";
  if (!tag.empty()) {
    name += ':';
    name += tag;
  }
  region_register(block, bytes, std::move(name));
  access(block, global_rank, true, sim_time, std::move(phase));
}

void RaceDetector::page_release(int global_rank, const void* block,
                                double sim_time, std::string phase) {
  access(block, global_rank, true, sim_time, std::move(phase));
  region_unregister(block);
}

// --- determinism digest ---------------------------------------------------

void RaceDetector::record_fingerprint(int global_rank,
                                      const CollectiveFingerprint& fp,
                                      int npeers) {
  auto& chain = digests_[static_cast<std::size_t>(global_rank)];
  std::uint64_t h = chain.empty() ? 0 : chain.back().hash;
  h = fold(h, static_cast<std::uint64_t>(fp.op));
  h = fold(h, fp.seq);
  h = fold(h, fp.width);
  h = fold(h, fp.extra);
  h = fold(h, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(fp.root)));
  h = fold(h, fp.bytes);
  h = fold(h, std::bit_cast<std::uint64_t>(fp.sim_time));
  h = fold(h, mutil::fnv1a(fp.phase));
  if (fp.send_counts != nullptr) {
    for (int i = 0; i < npeers; ++i) h = fold(h, fp.send_counts[i]);
  }
  if (fp.recv_counts != nullptr) {
    for (int i = 0; i < npeers; ++i) h = fold(h, fp.recv_counts[i]);
  }
  chain.push_back(DigestEntry{h, fp.phase});
}

DeterminismDigest RaceDetector::digest() const {
  DeterminismDigest out;
  out.ranks = digests_;
  return out;
}

std::size_t RaceDetector::races() const {
  const std::scoped_lock lock(mutex_);
  return races_;
}

// --- rank-thread binding --------------------------------------------------

ScopedRaceRank::ScopedRaceRank(RaceDetector* detector, int global_rank,
                               const simtime::Clock* clock) noexcept
    : previous_detector_(t_detector),
      previous_rank_(t_rank),
      previous_clock_(t_clock) {
  t_detector = detector;
  t_rank = global_rank;
  t_clock = clock;
}

ScopedRaceRank::~ScopedRaceRank() {
  t_detector = previous_detector_;
  t_rank = previous_rank_;
  t_clock = previous_clock_;
}

RaceDetector* current_race_detector() noexcept { return t_detector; }

void race_note_access(const void* base, bool write) {
  if (t_detector == nullptr) return;
  t_detector->access(base, t_rank, write, bound_sim_time(), bound_phase());
}

void race_handoff_publish(std::uint64_t key) {
  if (t_detector == nullptr) return;
  t_detector->handoff_publish(t_rank, key);
}

void race_handoff_acquire(std::uint64_t key) {
  if (t_detector == nullptr) return;
  t_detector->handoff_acquire(t_rank, key);
}

void race_nb_initiate(const void* base, bool op_writes,
                      std::string_view what) {
  if (t_detector == nullptr) return;
  t_detector->nb_initiate(base, t_rank, op_writes, what, bound_sim_time(),
                          bound_phase());
}

void race_nb_complete(const void* base) {
  if (t_detector == nullptr) return;
  t_detector->nb_complete(base, t_rank, bound_sim_time(), bound_phase());
}

void race_page_alloc(const void* block, std::uint64_t bytes) {
  if (t_detector == nullptr) return;
  const char* tag = memtrack::current_tag();
  t_detector->page_alloc(t_rank, block, bytes,
                         tag != nullptr ? tag : std::string_view(),
                         bound_sim_time(), bound_phase());
}

void race_page_release(const void* block) {
  if (t_detector == nullptr) return;
  t_detector->page_release(t_rank, block, bound_sim_time(), bound_phase());
}

// --- annotation API -------------------------------------------------------

SharedRegion::~SharedRegion() {
  if (t_detector != nullptr) t_detector->region_unregister(base_);
}

void SharedRegion::note(bool write) const {
  if (t_detector == nullptr) return;
  t_detector->ensure_and_access(base_, bytes_, name_, t_rank, write,
                                bound_sim_time(), bound_phase());
}

// --- cross-run determinism checker ----------------------------------------

DeterminismDigest determinism_digest(const JobChecker& checker) {
  const RaceDetector* detector = checker.race();
  return detector != nullptr ? detector->digest() : DeterminismDigest{};
}

std::optional<Divergence> compare_digests(const DeterminismDigest& a,
                                          const DeterminismDigest& b) {
  const std::size_t nranks = std::max(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < nranks; ++r) {
    if (r >= a.ranks.size() || r >= b.ranks.size()) {
      Divergence div;
      div.rank = static_cast<int>(r);
      div.detail = "rank " + std::to_string(r) +
                   " present in only one run (" + std::to_string(a.ranks.size()) +
                   " vs " + std::to_string(b.ranks.size()) + " ranks)";
      return div;
    }
    const auto& ra = a.ranks[r];
    const auto& rb = b.ranks[r];
    const std::size_t n = std::max(ra.size(), rb.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= ra.size() || i >= rb.size()) {
        Divergence div;
        div.rank = static_cast<int>(r);
        div.index = i;
        div.phase = i >= ra.size() ? rb[i].phase : ra[i].phase;
        div.detail = "rank " + std::to_string(r) + " ran " +
                     std::to_string(ra.size()) + " collectives in one run, " +
                     std::to_string(rb.size()) + " in the other";
        return div;
      }
      if (ra[i].hash != rb[i].hash) {
        Divergence div;
        div.rank = static_cast<int>(r);
        div.index = i;
        // The chained hash pins the *first* divergent collective; its
        // phase names where the runs split.
        div.phase = ra[i].phase;
        div.detail = "rank " + std::to_string(r) + " collective #" +
                     std::to_string(i) + " fingerprint differs in phase '" +
                     (ra[i].phase.empty() ? std::string("<none>")
                                          : ra[i].phase) +
                     "'" +
                     (ra[i].phase == rb[i].phase
                          ? std::string()
                          : " (other run was in phase '" + rb[i].phase +
                                "')");
        return div;
      }
    }
  }
  return std::nullopt;
}

bool race_env_enabled() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* value = std::getenv("MIMIR_RACE");
  if (value == nullptr) return false;
  const std::string_view v(value);
  return !(v.empty() || v == "0" || v == "false" || v == "off" || v == "no");
}

}  // namespace check
