#include "apps/wordcount.hpp"

#include <algorithm>
#include <sstream>

#include "mutil/hash.hpp"
#include "mutil/random.hpp"

namespace apps::wc {

namespace {
constexpr std::uint64_t kOne = 1;

/// Order-independent digest over (word, count) pairs.
std::uint64_t digest(std::string_view word, std::uint64_t count) {
  return mutil::hash_bytes(word) * count;
}

/// Deterministic word for a vocabulary index (fixed length).
std::string uniform_word(std::uint64_t index, int length) {
  std::string word(static_cast<std::size_t>(length), 'a');
  std::uint64_t x = mutil::mix64(index + 1);
  for (auto& c : word) {
    c = static_cast<char>('a' + x % 26);
    x /= 26;
    if (x == 0) x = mutil::mix64(index ^ c);
  }
  return word;
}

/// Deterministic word for a Zipf rank: length grows slowly with rank,
/// matching natural-language statistics (frequent words are short).
std::string wikipedia_word(std::uint64_t rank) {
  const int length = 4 + static_cast<int>(
                             mutil::mix64(rank * 31 + 7) %
                             (8 + rank % 16));
  std::string word(static_cast<std::size_t>(length), 'a');
  std::uint64_t x = mutil::mix64(rank + 0x9e37);
  for (auto& c : word) {
    c = static_cast<char>('a' + x % 26);
    x = mutil::mix64(x);
  }
  return word;
}

std::vector<std::string> generate(
    pfs::FileSystem& fs, const std::string& prefix, const GenOptions& opts,
    const std::function<std::string(mutil::Xoshiro256&)>& next_word) {
  std::vector<std::string> files;
  simtime::Clock setup_clock;  // dataset creation is not part of any job
  mutil::Xoshiro256 rng(opts.seed);
  const std::uint64_t per_file =
      opts.total_bytes / static_cast<std::uint64_t>(opts.num_files);
  for (int f = 0; f < opts.num_files; ++f) {
    const std::string name = prefix + "/part" + std::to_string(f);
    pfs::Writer writer = fs.create(name);
    std::string line;
    std::uint64_t written = 0;
    while (written < per_file) {
      line.clear();
      // ~8 words per line.
      for (int w = 0; w < 8; ++w) {
        line += next_word(rng);
        line += ' ';
      }
      line.back() = '\n';
      writer.write(line, setup_clock);
      written += line.size();
    }
    files.push_back(name);
  }
  return files;
}

}  // namespace

void map_words(std::string_view chunk, mimir::Emitter& out) {
  // A plain loop: find_first_of with a separator set calls memchr once
  // per input byte.
  constexpr std::uint64_t kSeparators =
      (1ULL << ' ') | (1ULL << '\n') | (1ULL << '\t') | (1ULL << '\r');
  std::size_t start = 0;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const auto c = static_cast<unsigned char>(chunk[i]);
    if (c > ' ' || ((kSeparators >> c) & 1) == 0) continue;
    if (i > start) {
      out.emit(chunk.substr(start, i - start), mimir::as_view(kOne));
    }
    start = i + 1;
  }
  if (chunk.size() > start) {
    out.emit(chunk.substr(start), mimir::as_view(kOne));
  }
}

void reduce_counts(std::string_view key, mimir::ValueReader& values,
                   mimir::Emitter& out) {
  std::uint64_t total = 0;
  std::string_view v;
  while (values.next(v)) total += mimir::as_u64(v);
  out.emit(key, mimir::as_view(total));
}

void combine_counts(std::string_view, std::string_view a,
                    std::string_view b, std::string& out) {
  const std::uint64_t total = mimir::as_u64(a) + mimir::as_u64(b);
  out.assign(mimir::as_view(total));
}

std::vector<std::string> generate_uniform(pfs::FileSystem& fs,
                                          const std::string& prefix,
                                          const GenOptions& opts) {
  return generate(fs, prefix, opts, [&](mutil::Xoshiro256& rng) {
    return uniform_word(rng.below(opts.vocabulary), opts.word_length);
  });
}

std::vector<std::string> generate_wikipedia(pfs::FileSystem& fs,
                                            const std::string& prefix,
                                            const GenOptions& opts) {
  // Large vocabulary; actual usage concentrates on low Zipf ranks.
  // Real corpora reuse words heavily: a bounded vocabulary keeps the
  // unique/total ratio Wikipedia-like (fractions of a percent at scale).
  const std::uint64_t vocab = std::max<std::uint64_t>(opts.vocabulary,
                                                      1 << 16);
  mutil::ZipfSampler zipf(vocab, opts.zipf_exponent);
  return generate(fs, prefix, opts, [&](mutil::Xoshiro256& rng) {
    return wikipedia_word(zipf.sample(rng));
  });
}

std::map<std::string, std::uint64_t> reference_counts(
    pfs::FileSystem& fs, const std::vector<std::string>& files) {
  std::map<std::string, std::uint64_t> counts;
  simtime::Clock clock;
  for (const auto& file : files) {
    const auto bytes = fs.read_file(file, clock);
    std::istringstream in(std::string(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    std::string word;
    while (in >> word) ++counts[word];
  }
  return counts;
}

namespace {

Result finalize(simmpi::Context& ctx, std::uint64_t local_total,
                std::uint64_t local_unique, std::uint64_t local_digest) {
  Result r;
  r.total_words = ctx.comm.allreduce_u64(local_total, simmpi::Op::kSum);
  r.unique_words = ctx.comm.allreduce_u64(local_unique, simmpi::Op::kSum);
  r.checksum = ctx.comm.allreduce_u64(local_digest, simmpi::Op::kSum);
  return r;
}

}  // namespace

Result run_mimir(simmpi::Context& ctx, const RunOptions& opts) {
  mimir::JobConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.comm_buffer = opts.comm_buffer;
  if (opts.hint) cfg.hint = mimir::KVHint::string_key_u64_value();
  cfg.kv_compression = opts.cps;
  cfg.overlap = opts.overlap;
  cfg.balance.enabled = opts.balance;
  cfg.prefetch = opts.prefetch;

  mimir::Job job(ctx, cfg);
  // The combiner is also handed over when balance is on (without cps it
  // is unused during the map): the balance merge pass combines each
  // split rank's share of a heavy word locally before re-homing it.
  job.map_text_files(opts.files, map_words,
                     opts.cps || opts.balance ? combine_counts
                                              : mimir::CombineFn{});
  if (opts.pr) {
    job.partial_reduce(combine_counts);
  } else {
    job.reduce(reduce_counts);
  }

  std::uint64_t total = 0, unique = 0, dig = 0;
  job.output().scan([&](const mimir::KVView& kv) {
    const std::uint64_t count = mimir::as_u64(kv.value);
    total += count;
    ++unique;
    dig += digest(kv.key, count);
  });
  return finalize(ctx, total, unique, dig);
}

Result run_mrmpi(simmpi::Context& ctx, const RunOptions& opts,
                 mrmpi::OocMode ooc) {
  mrmpi::MRConfig cfg;
  cfg.page_size = opts.page_size;
  cfg.out_of_core = ooc;

  mrmpi::MapReduce mr(ctx, cfg);
  mr.map_text_files(opts.files, map_words);
  if (opts.cps) mr.compress(combine_counts);
  mr.aggregate();
  mr.convert();
  mr.reduce(reduce_counts);

  std::uint64_t total = 0, unique = 0, dig = 0;
  mr.scan_kv([&](const mimir::KVView& kv) {
    const std::uint64_t count = mimir::as_u64(kv.value);
    total += count;
    ++unique;
    dig += digest(kv.key, count);
  });
  Result r = finalize(ctx, total, unique, dig);
  r.spilled = ctx.comm.allreduce_lor(mr.metrics().spilled);
  return r;
}

}  // namespace apps::wc
