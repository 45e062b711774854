/**
 * @file
 * The sweep runner: everything a sweep does with its {row x config} cells
 * (resume, deal order, compute, commit, recovery at merge and progress)
 * in one place. Cells are deterministic functions of their index and
 * their checkpoint files are mergeable, so the runner's only branch is
 * the executor that computes the cells it deals:
 *
 *  - Resume: every cell with a committed file in the checkpoint directory
 *    is loaded. Missing and unloadable cells go on the deal list: most
 *    expensive config first once `.cost` sidecars exist, index order
 *    otherwise.
 *
 *  - Threads (shards <= 1): forEachJob computes the dealt cells in this
 *    process and commits each with one atomic write. A cell that cannot
 *    be committed keeps its in-memory result.
 *
 *  - Forked workers (shards > 1): each worker takes the next deal-list
 *    index from a counter on one shared page, computes that cell, commits
 *    it with an fsync'd atomic rename plus a `.cost` sidecar of its
 *    compute seconds, and reports {cell, ops} to the coordinator over a
 *    pipe. A worker that dies loses only the cell it was computing. Once
 *    the workers are reaped, the coordinator loads the dealt cells and
 *    recomputes any that are missing or fail their checksum, so the
 *    matrix is always complete and bit-identical to a threaded run.
 *
 *  - Progress: only the process that runs the sweep prints progress lines
 *    and writes status.json.
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

/** Safety cap on the worker count a sweep will fork. */
inline constexpr unsigned kMaxShards = 256;

/** What a sweep did (stats for logs/benches/tests). */
struct ShardOutcome
{
    /** Simulations made in this run: dealt cells computed by the threads
     *  or the workers, plus cells recomputed at merge. */
    size_t computed = 0;
    /** Cells loaded from the checkpoint directory instead of computed. */
    size_t resumed = 0;
    size_t staleTmpRemoved = 0; ///< orphaned tmp files swept
    size_t workersForked = 0;
    size_t workersFailed = 0; ///< forked workers that exited abnormally
    /** Cells whose checkpoint file existed but failed to load (torn write,
     *  mangled file); each is recomputed. */
    size_t corruptCells = 0;
    /** Cells whose recomputed checkpoint kept failing verification at
     *  merge and were moved into <dir>/quarantine/ (in-memory result
     *  still used). */
    size_t quarantined = 0;
};

/** Computes one cell of the matrix; must be a pure function of the index
 *  (same index -> bit-identical RunResult in every process). */
using CellFn = std::function<RunResult(size_t cell)>;

/** Checkpoint file of one cell: <dir>/cell-<row>-<cfg>.rr. */
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
 * Run the sweep `m` and fill `out` (resized to m.numCells()).
 *
 * `dir` is the sweep's existing checkpoint directory, or empty for none;
 * a forked sweep without one uses a private scratch directory it removes
 * afterwards. Cells are computed by `threads` forEachJob threads (0 = the
 * hardware count), or, with `shards` > 1, by that many forked workers;
 * fatal() above kMaxShards. Progress lines go to stderr at most every
 * `progress_sec` seconds (0 = none) and status.json is rewritten in
 * `dir`.
 *
 * With an empty `compute` the runner only resumes: the caller gets every
 * loadable cell, and `resumed` short of m.numCells() means the directory
 * is incomplete (the rest are default RunResults). Orphaned *.tmp.* files
 * older than 120 s are swept either way.
 */
ShardOutcome runSweep(const std::string& dir, const SweepManifest& m,
                      const CellFn& compute, std::vector<RunResult>& out,
                      unsigned threads, unsigned shards,
                      unsigned progress_sec = 0);

} // namespace constable

#endif
