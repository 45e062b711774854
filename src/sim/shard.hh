/**
 * @file
 * Sharded multi-process sweep execution: a process tier above forEachJob's
 * threads. A sweep's {row x config} cells are deterministic functions
 * of their index and its checkpoint files are mergeable, so forked worker
 * processes sharing one checkpoint directory can split a matrix:
 *
 *  - The coordinator writes the sweep manifest and lists the cells that
 *    have no committed file: most expensive config first once `.cost`
 *    sidecars exist, index order otherwise. It maps one shared page of
 *    atomic counters and forks the workers.
 *
 *  - Each worker takes the next list index from the shared counter,
 *    computes that cell, commits it with an fsync'd atomic rename plus a
 *    `.cost` sidecar of its compute seconds, and stops when the list runs
 *    out. A worker that dies loses only the cell it was computing.
 *
 *  - Once the workers are reaped, the coordinator merges the checkpoint
 *    files. Missing or checksum-failing cells are recomputed locally, so
 *    the merged matrix is always complete and bit-identical to a
 *    single-process run.
 *
 *  - A manifest record written once into the directory pins the sweep's
 *    identity (experiment, suite hash, grid shape, config names); a
 *    process whose sweep disagrees fails fast instead of interleaving
 *    incompatible cells.
 */

#ifndef CONSTABLE_SIM_SHARD_HH
#define CONSTABLE_SIM_SHARD_HH

#include <functional>
#include <string>
#include <vector>

#include "trace/serialize.hh"

namespace constable {

/** Process-level parallelism knobs (ExperimentOptions::shard()). */
struct ShardOptions
{
    /** Safety cap on the worker count a coordinator will fork. */
    static constexpr unsigned kMaxShards = 256;

    /** Worker processes to fork; each computes its cells serially. */
    unsigned shards = 1;

    bool active() const { return shards > 1; }
};

/** What a sharded execution did (stats for logs/benches/tests). */
struct ShardOutcome
{
    /** Cells simulated in this run: committed by the workers plus
     *  recomputed at merge. */
    size_t computed = 0;
    size_t loaded = 0;        ///< cells merged from checkpoint files
    /** Cells whose checkpoint file already existed when this execution
     *  started — i.e. genuinely resumed work, as opposed to `loaded`,
     *  which counts the final merge and so always spans the matrix. */
    size_t preExisting = 0;
    size_t staleTmpRemoved = 0; ///< orphaned tmp files cleaned at merge
    size_t workersForked = 0;
    size_t workersFailed = 0; ///< forked workers that exited abnormally
    /** Cells whose checkpoint file existed at merge but failed its
     *  checksum (torn write / mangled file); each is regenerated. */
    size_t corruptCells = 0;
    /** Cells whose regenerated checkpoint kept failing verification and
     *  were moved into <dir>/quarantine/ (in-memory result still used). */
    size_t quarantined = 0;
};

/** Computes one cell of the matrix; must be a pure function of the index
 *  (same index -> bit-identical RunResult in every process). */
using CellFn = std::function<RunResult(size_t cell)>;

/** Checkpoint file of one cell: <dir>/cell-<row>-<cfg>.rr (the same layout
 *  single-process checkpoint/resume uses, so the two tiers interoperate). */
std::string cellFilePath(const std::string& dir, const SweepManifest& m,
                         size_t cell);

/**
 * Write the manifest into `dir` if absent, or verify the existing one
 * matches `m`; fatal() on a mismatch (the directory belongs to a
 * different sweep). Safe under concurrent callers: writers race with
 * byte-identical atomic renames.
 */
void writeOrVerifyManifest(const std::string& dir, const SweepManifest& m);

/**
 * Execute all cells of `m` on opts.shards forked workers and fill `out`
 * (resized to m.numCells()) with the complete merged matrix. Cells that
 * already have a committed file are resumed, not recomputed. `dir` must
 * exist.
 */
ShardOutcome runShardedCells(const std::string& dir, const SweepManifest& m,
                             const CellFn& compute,
                             std::vector<RunResult>& out,
                             const ShardOptions& opts);

/**
 * Merge-only entry: load every cell of `m` from `dir` into `out`.
 * Missing or corrupt cells are recomputed via `compute` when provided,
 * otherwise reported by returning false (out is left partially filled;
 * absent cells are default RunResults). Also sweeps orphaned *.tmp.*
 * files older than 120 s.
 */
bool mergeShardedCells(const std::string& dir, const SweepManifest& m,
                       const CellFn* compute, std::vector<RunResult>& out,
                       ShardOutcome& outcome);

} // namespace constable

#endif
