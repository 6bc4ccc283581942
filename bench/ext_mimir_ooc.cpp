// Extension: Mimir out-of-core intermediate data (follow-up-work
// feature; the paper's Mimir simply cannot run once the node memory is
// exhausted).
//
// Sweep WordCount sizes past the node budget on one comet_sim node:
//   * Mimir            — fast until the budget, then "-" (OOM);
//   * Mimir (ooc)      — keeps running past the boundary by spilling the
//                        intermediate container, degrading gradually;
//   * MR-MPI (512M)    — the baseline's out-of-core path for reference.
//
// Expected: Mimir (ooc) extends the feasible range beyond in-memory
// Mimir and degrades far less violently than MR-MPI, because only the
// overflow portion spills (one write + one read) instead of every phase
// rereading everything.
//
// Usage: ./ext_mimir_ooc [full=1] [key=value ...]
#include "apps/wordcount.hpp"
#include "harness.hpp"
#include "mimir/job.hpp"

int main(int argc, char** argv) {
  const auto cfg = bench::parse_cli(argc, argv);
  bench::Report::init("ext_mimir_ooc", cfg);
  auto machine = simtime::MachineProfile::comet_sim();
  // A deliberately small node so the boundary sits early in the sweep.
  machine.node_memory = 16 << 20;
  machine.apply_overrides(cfg);
  const int ranks = machine.ranks_per_node;

  std::vector<std::uint64_t> sizes = {1 << 20, 2 << 20, 4 << 20, 8 << 20};
  if (!bench::quick_mode(cfg)) sizes.push_back(16 << 20);

  bench::Table table(
      "Extension — Mimir out-of-core",
      "WordCount (Uniform) on a 16 GB-equivalent comet_sim node.\n"
      "Mimir (ooc) bounds live intermediate bytes per rank and spills\n"
      "the rest; expected shape: it runs past Mimir's OOM boundary with\n"
      "graceful (not catastrophic) slowdown.",
      {"dataset", "Mimir mem", "Mimir time", "Mimir(ooc) mem",
       "Mimir(ooc) time", "MR-MPI(64M) mem", "MR-MPI(64M) time"});

  pfs::FileSystem fs(machine, ranks);
  for (const std::uint64_t size : sizes) {
    apps::wc::GenOptions gen;
    gen.total_bytes = size;
    gen.num_files = ranks;
    const std::string prefix = "wc-" + std::to_string(size);
    const auto files = apps::wc::generate_uniform(fs, prefix, gen);
    const std::string x = bench::paper_size(size);

    const auto run_mimir = [&](std::uint64_t ooc, const char* series) {
      return bench::run_config(
          ranks, machine, fs,
          [&](simmpi::Context& ctx) {
            mimir::JobConfig jc;
            jc.ooc_live_bytes = ooc;
            mimir::Job job(ctx, jc);
            job.map_text_files(files, apps::wc::map_words);
            const bool spilled = job.intermediate().spilled();
            job.reduce(apps::wc::reduce_counts);
            return spilled;
          },
          {"WC (Uniform)", x, series});
    };
    const auto plain = run_mimir(0, "Mimir");
    // Budget the live intermediate at ~1/4 of each rank's memory share.
    const auto ooc = run_mimir(
        machine.node_memory / static_cast<std::uint64_t>(4 * ranks),
        "Mimir(ooc)");

    apps::wc::RunOptions mr_opts;
    mr_opts.files = files;
    mr_opts.page_size = 64 << 10;
    const auto mrmpi = bench::run_config(
        ranks, machine, fs,
        [&](simmpi::Context& ctx) {
          return apps::wc::run_mrmpi(ctx, mr_opts).spilled;
        },
        {"WC (Uniform)", x, "MR-MPI(64M)"});

    table.row({x, bench::Table::mem_cell(plain),
               bench::Table::time_cell(plain), bench::Table::mem_cell(ooc),
               bench::Table::time_cell(ooc), bench::Table::mem_cell(mrmpi),
               bench::Table::time_cell(mrmpi)});
  }
  return 0;
}
