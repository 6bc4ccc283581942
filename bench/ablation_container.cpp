// Ablation (design decision 2, DESIGN.md): paged containers with
// incremental free vs MR-MPI's statically allocated per-phase pages.
//
// Both frameworks shuffle the identical WordCount workload; the table
// shows where the memory goes. MR-MPI's aggregate must hold 7 fixed
// pages (send + 2x recv + 2x temp + input + output) regardless of the
// data; Mimir holds 2 communication buffers plus exactly the live KV
// pages.
//
// Usage: ./ablation_container [key=value ...]
#include "apps/wordcount.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  const auto cfg = bench::parse_cli(argc, argv);
  bench::Report::init("ablation_container", cfg);
  auto machine = simtime::MachineProfile::comet_sim();
  machine.ranks_per_node = 4;  // a small node makes the census readable
  machine.apply_overrides(cfg);
  const int ranks = machine.ranks_per_node;

  const std::uint64_t dataset = cfg.get_size("size", 256 << 10);
  bench::Table table(
      "Ablation — buffer census",
      "Aggregate-phase memory for the same WordCount shuffle. MR-MPI's\n"
      "peak is pages*page_size per rank regardless of data volume;\n"
      "Mimir's tracks live data plus two comm buffers.",
      {"page size", "Mimir peak", "MR-MPI peak", "MR-MPI/Mimir"});

  for (const std::uint64_t page : {16u << 10, 64u << 10, 256u << 10}) {
    pfs::FileSystem fs(machine, ranks);
    apps::wc::GenOptions gen;
    gen.total_bytes = dataset;
    gen.num_files = ranks;
    const auto files = apps::wc::generate_uniform(fs, "wc", gen);
    apps::wc::RunOptions opts;
    opts.files = files;
    opts.page_size = page;
    opts.comm_buffer = page;
    const std::string x = mutil::format_size(page);

    const auto mimir = bench::run_config(
        ranks, machine, fs,
        [&](simmpi::Context& ctx) {
          return apps::wc::run_mimir(ctx, opts).spilled;
        },
        {"WC (Uniform)", x, "Mimir"});
    const auto mrmpi = bench::run_config(
        ranks, machine, fs,
        [&](simmpi::Context& ctx) {
          return apps::wc::run_mrmpi(ctx, opts).spilled;
        },
        {"WC (Uniform)", x, "MR-MPI"});
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  static_cast<double>(mrmpi.peak) /
                      static_cast<double>(mimir.peak));
    table.row({x, bench::Table::mem_cell(mimir),
               bench::Table::mem_cell(mrmpi), ratio});
  }
  return 0;
}
