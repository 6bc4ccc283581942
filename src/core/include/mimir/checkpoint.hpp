// Checkpoint/restart for Mimir jobs.
//
// The paper's companion work (Guo et al., "Fault Tolerant MapReduce-MPI
// for HPC Clusters", SC'15 — cited as having fixed MR-MPI's inability
// to handle system faults) checkpoints intermediate KV data to the
// parallel file system so a failed job can resume without redoing the
// map phase. This module provides the same capability for Mimir:
//
//   * save_container / load_container — serialize one rank's
//     KVContainer to the PFS under a named checkpoint (collective:
//     every rank writes/reads its own shard);
//   * Job::checkpoint / Job::resume — persist the aggregated
//     intermediate data right after map+aggregate (the expensive,
//     communication-heavy part) and reconstruct a mapped Job from it,
//     ready for reduce()/partial_reduce().
//
// Checkpoint I/O is charged to the simulated clock at PFS rates, so
// benchmarks can weigh checkpoint cost against re-execution cost.
#pragma once

#include <cstdint>
#include <string>

#include "mimir/containers.hpp"
#include "mimir/job.hpp"
#include "simmpi/runtime.hpp"

namespace mimir {

/// Write this rank's shard of `kvc` under checkpoint `name`.
/// Collective; all ranks must call it with the same name. With
/// `write_behind` (mimir.prefetch), shard writes enqueue against the
/// async pipeline and drain right before the commit barrier — shard
/// bytes are bit-identical either way, and the commit marker still
/// appears only after every charge landed.
void save_container(simmpi::Context& ctx, const KVContainer& kvc,
                    const std::string& name, bool write_behind = false);

/// True if a complete checkpoint `name` exists for this world size.
bool checkpoint_exists(simmpi::Context& ctx, const std::string& name);

/// Read back this rank's shard (page size from `page_size`). Throws
/// mutil::IoError on a missing or corrupt checkpoint, or a world-size
/// mismatch (shards are partitioned by the rank hash of the saving
/// world).
KVContainer load_container(simmpi::Context& ctx, const std::string& name,
                           std::uint64_t page_size);

/// Remove checkpoint `name` (rank 0 removes shared metadata; each rank
/// removes its shard). Collective.
void remove_checkpoint(simmpi::Context& ctx, const std::string& name);

/// Persist a mapped Job's intermediate KVs under `name`.
void checkpoint_job(Job& job, const std::string& name);

/// Reconstruct a Job in the mapped state from checkpoint `name`; the
/// returned Job is ready for reduce() / partial_reduce().
Job resume_job(simmpi::Context& ctx, JobConfig cfg,
               const std::string& name);

}  // namespace mimir
