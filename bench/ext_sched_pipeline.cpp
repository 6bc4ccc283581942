// Extension: the dataflow scheduler on a multi-job in-situ pipeline
// (not in the paper; the paper's pipelines are hand-rolled job loops).
//
// The workload is S independent two-stage chains — an in-situ histogram
// whose output container feeds a coarse-bands reduction over a data
// edge — the insitu_pipeline example at bench scale. Three drivers run
// the identical jobs:
//
//   manual loop:    a hand-rolled sequence of mimir::Job runs, the
//                   way BFS and k-means drive their iterations;
//   sched seq:      the same chains as a sched::Graph, max_concurrency
//                   1 (must match the manual loop exactly — the
//                   scheduler's overhead is zero by construction);
//   sched conc:     max_concurrency 4 under a global memory budget —
//                   independent chains run concurrently over disjoint
//                   rank groups, trading per-chain parallelism for
//                   pipeline-level parallelism.
//
// Expected shape: sched seq reproduces the manual wall time bit for
// bit; sched conc finishes the pipeline faster (less per-job barrier
// latency headroom wasted) while the admission budget keeps the
// concurrent peak bounded.
//
// Usage: ./ext_sched_pipeline [full=1] [key=value ...]
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mutil/hash.hpp"
#include "sched/scheduler.hpp"

namespace {

constexpr int kBins = 256;
constexpr int kRanks = 8;
constexpr std::uint64_t kParticles = 1 << 16;

void sum_u64(std::string_view, std::string_view a, std::string_view b,
             std::string& out) {
  out.assign(mimir::as_view(mimir::as_u64(a) + mimir::as_u64(b)));
}

double particle_energy(int step, std::uint64_t i) {
  const std::uint64_t h = mutil::mix64(
      static_cast<std::uint64_t>(step) * 0x9e3779b97f4a7c15ull + i);
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return -std::log(1.0 - u);
}

mimir::JobConfig stage_config() {
  mimir::JobConfig cfg;
  cfg.hint = mimir::KVHint::fixed(8, 8);
  cfg.kv_compression = true;
  return cfg;
}

void emit_particles(int step, int rank, int size, mimir::Emitter& out) {
  for (std::uint64_t i = static_cast<std::uint64_t>(rank); i < kParticles;
       i += static_cast<std::uint64_t>(size)) {
    const auto bin = static_cast<std::uint64_t>(std::min<double>(
        kBins - 1, particle_energy(step, i) * 32.0));
    out.emit(mimir::as_view(bin), std::uint64_t{1});
  }
}

void band_map(std::string_view bin, std::string_view count,
              mimir::Emitter& out) {
  out.emit(mimir::as_view(mimir::as_u64(bin) / 64), count);
}

/// The hand-rolled baseline: chains run back to back on the world.
simmpi::JobStats manual_loop(int steps,
                             const simtime::MachineProfile& machine,
                             stats::Collector* collector) {
  pfs::FileSystem fs(machine, kRanks);
  return simmpi::run(
      kRanks, machine, fs,
      [&](simmpi::Context& ctx) {
        for (int step = 0; step < steps; ++step) {
          mimir::Job histogram(ctx, stage_config());
          histogram.map_custom(
              [&](mimir::Emitter& out) {
                emit_particles(step, ctx.rank(), ctx.size(), out);
              },
              sum_u64);
          histogram.partial_reduce(sum_u64);

          mimir::Job bands(ctx, stage_config());
          bands.map_kvs(histogram.take_output(), band_map, sum_u64);
          bands.partial_reduce(sum_u64);
        }
      },
      collector);
}

sched::Graph pipeline_graph(int steps) {
  sched::Graph graph;
  for (int step = 0; step < steps; ++step) {
    sched::JobNode hist;
    hist.name = "hist" + std::to_string(step);
    hist.config = stage_config();
    hist.combiner = sum_u64;
    hist.partial = sum_u64;
    // Honest per-node admission estimate: pages plus the comm buffers
    // both stages keep live, with headroom for the handed-off output.
    hist.peak_estimate = 1 << 20;
    hist.producer = [step](sched::NodeCtx& nctx, mimir::Emitter& out) {
      emit_particles(step, nctx.exec.rank(), nctx.exec.size(), out);
    };

    sched::JobNode bands;
    bands.name = "bands" + std::to_string(step);
    bands.config = stage_config();
    bands.combiner = sum_u64;
    bands.partial = sum_u64;
    bands.peak_estimate = 1 << 20;
    bands.kv_map = [](sched::NodeCtx&, std::string_view bin,
                      std::string_view count, mimir::Emitter& out) {
      band_map(bin, count, out);
    };

    const int h = graph.add(hist);
    const int b = graph.add(bands);
    graph.add_edge(h, b);
  }
  return graph;
}

std::string seconds(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4fs", t);
  return buf;
}

std::string mebibytes(std::uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fMB",
                static_cast<double>(bytes) / (1 << 20));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_cli(argc, argv);
  bench::Report::init("ext_sched", cli);
  auto machine = simtime::MachineProfile::comet_sim();
  machine.apply_overrides(cli);
  const std::uint64_t budget = 8 << 20;

  std::vector<int> sweep = {4};
  if (!bench::quick_mode(cli)) sweep.push_back(8);

  bench::Table table(
      "Extension — dataflow scheduler vs manual job loop",
      "S independent histogram->bands chains (in-situ pipeline). The\n"
      "sequential scheduler must match the manual loop exactly; with\n"
      "concurrency 4 the chains run over disjoint rank groups under an\n"
      "8MB admission budget. Peak is max per-node memory.",
      {"chains", "manual mem", "manual time", "sched seq mem",
       "sched seq time", "sched c4 mem", "sched c4 time", "speedup"});

  for (const int steps : sweep) {
    const std::string x = std::to_string(steps);
    const bench::Outcome manual = bench::run_driver(
        [&](stats::Collector* collector) {
          return manual_loop(steps, machine, collector);
        },
        {"dataflow scheduler", x, "manual"});

    const bench::Outcome seq = bench::run_driver(
        [&](stats::Collector* collector) {
          pfs::FileSystem fs(machine, kRanks);
          return sched::run_graph(kRanks, machine, fs,
                                  pipeline_graph(steps), {}, collector)
              .stats;
        },
        {"dataflow scheduler", x, "sched seq"});

    const bench::Outcome conc = bench::run_driver(
        [&](stats::Collector* collector) {
          pfs::FileSystem fs(machine, kRanks);
          sched::GraphOptions options;
          options.max_concurrency = 4;
          options.memory_budget = budget;
          return sched::run_graph(kRanks, machine, fs,
                                  pipeline_graph(steps), options,
                                  collector)
              .stats;
        },
        {"dataflow scheduler", x, "sched c4"});

    if (!manual.ok() || !seq.ok() || !conc.ok()) {
      table.row({x, "-", "-", "-", "-", "-", "-", "ERR"});
      return 1;
    }
    if (seq.time != manual.time) {
      table.row({x, seconds(manual.time), "-", seconds(seq.time), "-",
                 "-", "-", "NOT BIT-IDENTICAL"});
      return 1;
    }
    if (conc.peak > budget) {
      table.row({x, "-", "-", "-", "-", seconds(conc.time),
                 mebibytes(conc.peak), "OVER BUDGET"});
      return 1;
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  manual.time / conc.time);
    table.row({x, bench::Table::mem_cell(manual),
               bench::Table::time_cell(manual),
               bench::Table::mem_cell(seq), bench::Table::time_cell(seq),
               bench::Table::mem_cell(conc),
               bench::Table::time_cell(conc), speedup});
  }
  return 0;
}
