/**
 * @file
 * Sharded multi-process sweep execution: a process tier above the batch
 * thread pool. A sweep's {row x config} cells are deterministic functions
 * of their index, its checkpoint files are mergeable (PR 2), so any number
 * of processes sharing one checkpoint directory can cooperate on a matrix:
 *
 *  - Cells are claimed dynamically through atomic O_CREAT|O_EXCL lease
 *    files next to the cell checkpoints. A claimed cell is computed,
 *    committed with an fsync'd atomic rename, and its lease released.
 *
 *  - Leases expire by file mtime: a SIGKILLed worker's claims go stale
 *    after leaseTtlSec and are reclaimed by survivors, so crashed cells
 *    are re-run, never lost. Because cells are deterministic and commits
 *    are atomic renames of byte-identical results, the (rare) reclaim race
 *    where two workers compute one cell is benign.
 *
 *  - Two launch modes share the claim loop. Coordinator mode
 *    (opts.shards > 1, shardId < 0) fork()s N single-threaded workers,
 *    waits for them, then merges the checkpoint files — missing or
 *    checksum-failing cells are recomputed locally, so the merged matrix
 *    is always complete and bit-identical to a single-process run.
 *    Worker mode (shardId >= 0, set via CONSTABLE_SHARD_ID or --shard-id)
 *    is for independently launched processes on machines sharing a
 *    filesystem: each claims cells until the matrix is done, then merges,
 *    so every shard returns the same full result.
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

#include "sim/batch.hh"
#include "trace/serialize.hh"

namespace constable {

/** Process-level parallelism knobs (ExperimentOptions::shard()). */
struct ShardOptions
{
    /** Safety cap on the worker count a coordinator will fork. */
    static constexpr unsigned kMaxShards = 256;

    /** Cooperating worker count: fork count in coordinator mode, expected
     *  fleet size (for claim-order striding) in worker mode. */
    unsigned shards = 1;
    /** >= 0: this process is worker k of `shards` on a shared checkpoint
     *  directory; it claims cells instead of forking. */
    int shardId = -1;
    /** A lease older than this is considered orphaned and is reclaimed.
     *  Must exceed the worst-case single-cell runtime. */
    unsigned leaseTtlSec = 120;
    /** Poll interval while waiting on cells other workers hold. */
    unsigned pollMs = 100;
    /** A cell whose regenerated checkpoint still fails verification after
     *  this many save/reload attempts is quarantined (moved into
     *  <dir>/quarantine/) instead of being rewritten forever. */
    unsigned quarantineAfter = 3;
    /** Thread/seed knobs for cells this process computes itself. Forked
     *  workers are forced serial (threads = 1): process-level parallelism
     *  replaces the pool, and a fork()ed child must never touch the
     *  global pool it inherited from the coordinator. */
    BatchOptions batch;

    bool active() const { return shards > 1 || shardId >= 0; }
};

/** What a sharded execution did locally (stats for logs/benches/tests). */
struct ShardOutcome
{
    size_t computed = 0;      ///< cells this process simulated
    size_t loaded = 0;        ///< cells merged from checkpoint files
    /** Cells whose checkpoint file already existed when this execution
     *  started — i.e. genuinely resumed work, as opposed to `loaded`,
     *  which counts the final merge and so always spans the matrix. */
    size_t preExisting = 0;
    size_t reclaimed = 0;     ///< stale leases this process reclaimed
    size_t staleTmpRemoved = 0; ///< orphaned tmp files cleaned at merge
    size_t workersForked = 0;
    size_t workersFailed = 0; ///< forked workers that exited abnormally
    /** Cells whose checkpoint file existed at merge but failed its
     *  checksum (torn write / mangled file); each is regenerated. */
    size_t corruptCells = 0;
    /** Cells whose regenerated checkpoint kept failing verification and
     *  were moved into <dir>/quarantine/ (in-memory result still used). */
    size_t quarantined = 0;
    /** Cells this worker computed but did not commit because its lease
     *  was lost (reclaimed by another worker) before the commit. */
    size_t abandoned = 0;
    /** Lease-age reads whose raw age was negative (file mtime ahead of
     *  the reader's clock — cross-machine skew) and were clamped to 0. */
    size_t skewClamped = 0;
};

/** Computes one cell of the matrix; must be a pure function of the index
 *  (same index -> bit-identical RunResult in every process). */
using CellFn = std::function<RunResult(size_t cell)>;

/** Checkpoint file of one cell: <dir>/cell-<row>-<cfg>.rr (the same layout
 *  single-process checkpoint/resume uses, so the two tiers interoperate). */
std::string cellFilePath(const std::string& dir, const SweepManifest& m,
                         size_t cell);

/** Lease file guarding a cell's claim: <cell path>.lease. */
std::string cellLeasePath(const std::string& dir, const SweepManifest& m,
                          size_t cell);

/**
 * Write the manifest into `dir` if absent, or verify the existing one
 * matches `m`; fatal() on a mismatch (the directory belongs to a
 * different sweep). Safe under concurrent callers: writers race with
 * byte-identical atomic renames.
 */
void writeOrVerifyManifest(const std::string& dir, const SweepManifest& m);

/**
 * Execute all cells of `m` cooperatively and fill `out` (resized to
 * m.numCells()) with the complete merged matrix. Dispatches on opts:
 * coordinator mode forks workers and merges; worker mode claims cells and
 * merges when the matrix is complete. `dir` must exist.
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
 * files older than opts.leaseTtlSec.
 */
bool mergeShardedCells(const std::string& dir, const SweepManifest& m,
                       const CellFn* compute, std::vector<RunResult>& out,
                       const ShardOptions& opts, ShardOutcome& outcome);

} // namespace constable

#endif
