// In-situ analytics pipeline — the paper's third input-source category,
// expressed as a sched::Graph instead of a hand-rolled loop.
//
// A toy "simulation" produces particle data in memory every timestep;
// each timestep becomes a two-node chain in one job DAG:
//
//   hist<N>:  histogram particle energies into bins (in-situ producer,
//             combiner so the shuffle carries one KV per bin per rank);
//   bands<N>: map the per-bin counts into coarse bands and reduce to a
//             4-row summary, fed the histogram's output container
//             directly over a data edge (no PFS round-trip).
//
// The timestep chains are independent components, so the dataflow
// scheduler can run several of them concurrently over disjoint rank
// groups under a global memory budget — try concurrency=4 and compare
// the reported sim time with the sequential default. Particle energies
// are derived from a counter-based hash, so the summary is identical
// for every rank count and concurrency setting.
//
// Usage: ./insitu_pipeline [steps=4] [particles=100000]
//                          [concurrency=1] [budget=<bytes, 0=node mem>]
//                          [mimir.<key>=<value>...]
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mimir/mimir.hpp"
#include "mutil/config.hpp"
#include "mutil/hash.hpp"
#include "sched/scheduler.hpp"
#include "simmpi/runtime.hpp"

namespace {

constexpr int kBins = 64;
constexpr int kRanks = 8;

void sum_u64(std::string_view, std::string_view a, std::string_view b,
             std::string& out) {
  const std::uint64_t total = mimir::as_u64(a) + mimir::as_u64(b);
  out.assign(mimir::as_view(total));
}

/// Energy of global particle `i` at timestep `step`: exponential tail
/// from a counter-based hash (identical on every rank layout).
double particle_energy(int step, std::uint64_t i) {
  const std::uint64_t h =
      mutil::mix64(static_cast<std::uint64_t>(step) * 0x9e3779b97f4a7c15ull + i);
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return -std::log(1.0 - u);
}

/// Per-rank session state: the coarse-band totals of every timestep.
struct BandTotals {
  std::vector<std::array<std::uint64_t, 4>> by_step;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  const auto cfg = mutil::Config::from_args(args);
  const int steps = static_cast<int>(cfg.get_int("steps", 4));
  const auto particles =
      static_cast<std::uint64_t>(cfg.get_int("particles", 100000));

  // mimir.* keys (e.g. mimir.balance=1) apply to both nodes of every step.
  mimir::JobConfig hist_cfg = mimir::JobConfig::from(cfg);
  hist_cfg.hint = mimir::KVHint::fixed(8, 8);  // bin id -> count
  hist_cfg.kv_compression = true;              // combine before shuffle

  // --- the job DAG: one independent histogram->bands chain per step ----
  sched::Graph graph;
  for (int step = 0; step < steps; ++step) {
    sched::JobNode hist;
    hist.name = "hist" + std::to_string(step);
    hist.config = hist_cfg;
    hist.combiner = sum_u64;
    hist.partial = sum_u64;
    hist.producer = [step, particles](sched::NodeCtx& nctx,
                                      mimir::Emitter& out) {
      // Each rank of the node's group simulates its share of particles,
      // partitioned by global index so the data is layout-independent.
      const auto size = static_cast<std::uint64_t>(nctx.exec.size());
      const auto rank = static_cast<std::uint64_t>(nctx.exec.rank());
      for (std::uint64_t i = rank; i < particles; i += size) {
        const double energy = particle_energy(step, i);
        const auto bin = static_cast<std::uint64_t>(
            std::min<double>(kBins - 1, energy * 8.0));
        out.emit(mimir::as_view(bin), std::uint64_t{1});
      }
    };

    sched::JobNode bands;
    bands.name = "bands" + std::to_string(step);
    bands.config = hist_cfg;
    bands.combiner = sum_u64;
    bands.kv_map = [](sched::NodeCtx&, std::string_view bin,
                      std::string_view count, mimir::Emitter& out) {
      const std::uint64_t band = mimir::as_u64(bin) / 21;
      out.emit(mimir::as_view(band), count);
    };
    bands.partial = sum_u64;
    bands.consume = [step](sched::NodeCtx& nctx, mimir::KVContainer& out) {
      auto* totals = static_cast<BandTotals*>(nctx.state);
      out.scan([&](const mimir::KVView& kv) {
        totals->by_step[static_cast<std::size_t>(step)]
                       [mimir::as_u64(kv.key) & 3] = mimir::as_u64(kv.value);
      });
    };

    const int h = graph.add(hist);
    const int b = graph.add(bands);
    graph.add_edge(h, b);
  }

  sched::GraphOptions options = sched::GraphOptions::from(cfg);
  options.max_concurrency =
      static_cast<int>(cfg.get_int("concurrency", options.max_concurrency));
  options.memory_budget = cfg.get_size("budget", options.memory_budget);
  options.make_state = [steps](simmpi::Context&) {
    auto state = std::make_shared<BandTotals>();
    state->by_step.resize(static_cast<std::size_t>(steps));
    return state;
  };
  options.epilogue = [steps](sched::NodeCtx& nctx) {
    // Bands land on their key's hash owner within the step's rank
    // group; the world-level reduction folds the groups together.
    auto* totals = static_cast<BandTotals*>(nctx.state);
    for (int step = 0; step < steps; ++step) {
      std::uint64_t merged[4];
      for (int b = 0; b < 4; ++b) {
        merged[b] = nctx.exec.comm.allreduce_u64(
            totals->by_step[static_cast<std::size_t>(step)]
                           [static_cast<std::size_t>(b)],
            simmpi::Op::kSum);
      }
      if (nctx.exec.rank() == 0) {
        std::printf(
            "step %d: low=%llu mid=%llu high=%llu tail=%llu\n", step,
            static_cast<unsigned long long>(merged[0]),
            static_cast<unsigned long long>(merged[1]),
            static_cast<unsigned long long>(merged[2]),
            static_cast<unsigned long long>(merged[3]));
      }
    }
  };

  const auto machine = simtime::MachineProfile::test_profile();
  pfs::FileSystem fs(machine, kRanks);
  const sched::GraphOutcome outcome =
      sched::run_graph(kRanks, machine, fs, graph, options);
  std::printf(
      "%d jobs in %d wave(s), concurrency %d: sim time %.6fs, node peak "
      "%llu bytes\n",
      outcome.jobs(), outcome.waves(), options.max_concurrency,
      outcome.stats.sim_time,
      static_cast<unsigned long long>(outcome.stats.node_peak));
  return 0;
}
