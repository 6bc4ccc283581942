// Ablation (design decision 5, DESIGN.md): pipelined KV compression.
//
// The paper (§III-C2) keeps the compression bucket until the whole
// input is combined — maximal compression, but bucket memory grows with
// the number of unique keys and the aggregate is fully serialized
// behind the map. Bounding the bucket (cps_max_bucket) trades a little
// compression for bounded memory and overlapped communication. The
// sweep shows the trade-off on a skewed WordCount.
//
// Usage: ./ablation_pipelined_cps [key=value ...]
#include <atomic>

#include "apps/wordcount.hpp"
#include "harness.hpp"
#include "mimir/job.hpp"

int main(int argc, char** argv) {
  const auto cfg = bench::parse_cli(argc, argv);
  bench::Report::init("ablation_pipelined_cps", cfg);
  auto machine = simtime::MachineProfile::comet_sim();
  machine.ranks_per_node = 4;
  machine.apply_overrides(cfg);
  const int ranks = machine.ranks_per_node;

  pfs::FileSystem fs(machine, ranks);
  apps::wc::GenOptions gen;
  gen.total_bytes = cfg.get_size("size", 1 << 20);
  gen.num_files = ranks;
  const auto files = apps::wc::generate_wikipedia(fs, "wc", gen);

  bench::Table table(
      "Ablation — pipelined KV compression",
      "WordCount (Wikipedia) with the cps bucket flushed at a byte bound\n"
      "(0 = paper behaviour, flush only after the whole input).\n"
      "Expected: smaller bounds cap map-phase memory at the cost of some\n"
      "combining (more shuffled KVs).",
      {"bucket bound", "combined KVs", "shuffled KVs", "peak mem", "time"});

  for (const std::uint64_t bound :
       {std::uint64_t{0}, std::uint64_t{256} << 10, std::uint64_t{64} << 10,
        std::uint64_t{16} << 10, std::uint64_t{4} << 10}) {
    std::atomic<std::uint64_t> combined{0}, shuffled{0};
    const std::string x =
        bound == 0 ? "inf (paper)" : mutil::format_size(bound);
    const auto outcome = bench::run_config(
        ranks, machine, fs,
        [&](simmpi::Context& ctx) {
          mimir::JobConfig jc;
          jc.hint = mimir::KVHint::string_key_u64_value();
          jc.kv_compression = true;
          jc.cps_max_bucket = bound;
          mimir::Job job(ctx, jc);
          job.map_text_files(files, apps::wc::map_words,
                             apps::wc::combine_counts);
          job.partial_reduce(apps::wc::combine_counts);
          combined.fetch_add(job.metrics().combined_kvs);
          shuffled.fetch_add(job.metrics().map_emitted_kvs);
          return false;
        },
        {"WC (Wikipedia)", x, "Mimir"});
    table.row({x, std::to_string(combined.load()),
               std::to_string(shuffled.load()),
               bench::Table::mem_cell(outcome),
               bench::Table::time_cell(outcome)});
  }
  return 0;
}
