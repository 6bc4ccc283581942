// Ablation (design decision 1, DESIGN.md): the interleaved map+aggregate
// decouples memory from input volume. Shrinking the communication
// buffer multiplies exchange rounds but leaves peak memory nearly flat
// and adds only the per-round latency — i.e. the buffer is a throughput
// knob, not a capacity limit. In MR-MPI the equivalent knob (the page)
// IS the capacity limit: shrinking it forces spilling.
//
// Usage: ./ablation_interleave [key=value ...]
#include <atomic>

#include "apps/wordcount.hpp"
#include "harness.hpp"
#include "mimir/job.hpp"

int main(int argc, char** argv) {
  const auto cfg = bench::parse_cli(argc, argv);
  bench::Report::init("ablation_interleave", cfg);
  auto machine = simtime::MachineProfile::comet_sim();
  machine.ranks_per_node = 4;
  machine.apply_overrides(cfg);
  const int ranks = machine.ranks_per_node;
  const std::uint64_t dataset = cfg.get_size("size", 512 << 10);

  pfs::FileSystem fs(machine, ranks);
  apps::wc::GenOptions gen;
  gen.total_bytes = dataset;
  gen.num_files = ranks;
  const auto files = apps::wc::generate_uniform(fs, "wc", gen);

  bench::Table table(
      "Ablation — interleaved aggregate",
      "Mimir with shrinking communication buffers on a fixed dataset.\n"
      "Expected: rounds grow ~1/buffer, peak memory barely moves, time\n"
      "rises only by collective latency.",
      {"comm buffer", "exchange rounds", "peak mem", "time"});

  for (const std::uint64_t buffer :
       {256u << 10, 64u << 10, 16u << 10, 4u << 10}) {
    std::atomic<std::uint64_t> rounds{0};
    const std::string x = mutil::format_size(buffer);
    const auto outcome = bench::run_config(
        ranks, machine, fs,
        [&](simmpi::Context& ctx) {
          mimir::JobConfig jc;
          jc.comm_buffer = buffer;
          mimir::Job job(ctx, jc);
          job.map_text_files(files, apps::wc::map_words);
          job.reduce(apps::wc::reduce_counts);
          if (ctx.rank() == 0) {
            rounds.store(job.metrics().exchange_rounds);
          }
          return false;
        },
        {"WC (Uniform)", x, "Mimir"});
    table.row({x, std::to_string(rounds.load()),
               bench::Table::mem_cell(outcome),
               bench::Table::time_cell(outcome)});
  }
  return 0;
}
