/**
 * @file
 * Compact binary serialization for generated traces and per-run results.
 * Backs the CONSTABLE_TRACE_DIR on-disk suite cache (generate a trace once,
 * load it on every later bench invocation) and the per-cell checkpoint files
 * of Experiment sweeps. The encoding is explicit little-endian field-by-field
 * (never raw struct memory), so files are byte-stable across compilers, and
 * every file carries a version tag plus a trailing checksum: corrupt or
 * truncated files are detected and the caller regenerates instead of
 * crashing or silently computing on garbage.
 */

#ifndef CONSTABLE_TRACE_SERIALIZE_HH
#define CONSTABLE_TRACE_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_result.hh"
#include "trace/generator.hh"
#include "trace/trace.hh"

namespace constable {

/** Bumped whenever the on-disk encoding (or the hashed spec field set)
 *  changes; stale cache files then fail to load and are regenerated. */
inline constexpr uint32_t kSerializeVersion = 1;

// ------------------------------------------------------------------ traces

/** Encode a trace (byte-stable: same trace -> same bytes). */
std::vector<uint8_t> serializeTrace(const Trace& t);

/** Decode; returns false (leaving out untouched on header failures) on any
 *  corruption, truncation, or version mismatch. */
bool deserializeTrace(const std::vector<uint8_t>& bytes, Trace& out);

/** Decode from raw bytes (e.g. an mmap view) without an owning buffer. */
bool deserializeTrace(const uint8_t* bytes, size_t n, Trace& out);

/** Write atomically through writeFileAtomic (common/faultio.hh), so
 *  readers never observe a half-written cache entry. Returns false on
 *  I/O failure. */
bool saveTrace(const std::string& path, const Trace& t);

/** Load and verify; false on missing/corrupt/truncated/mismatched files.
 *  Decodes from an mmap view of the file (no intermediate whole-file heap
 *  buffer), falling back to a buffered read when the file cannot be
 *  mapped (e.g. it is empty). */
bool loadTrace(const std::string& path, Trace& out);

// -------------------------------------------------------------- run results

/** Encode one simulation result, including the full named-stat map (doubles
 *  preserved bit-exactly, so a resumed sweep is bit-identical). */
std::vector<uint8_t> serializeRunResult(const RunResult& r);

bool deserializeRunResult(const std::vector<uint8_t>& bytes, RunResult& out);

/** @param durable fsync before the rename commit (checkpoint cells written
 *  by sharded workers; see writeFileAtomic in common/faultio.hh). */
bool saveRunResult(const std::string& path, const RunResult& r,
                   bool durable = false);

bool loadRunResult(const std::string& path, RunResult& out);

// ------------------------------------------------- multi-process sweep files

/**
 * Identity of a sharded sweep, written once (atomically) into its
 * checkpoint directory as `manifest.sweep`. Every cooperating process
 * verifies it against its own sweep before claiming cells, so two
 * different experiments pointed at one directory fail fast instead of
 * silently interleaving incompatible cell files.
 */
struct SweepManifest
{
    std::string experiment;
    uint64_t suiteHash = 0;
    bool smt = false;
    uint64_t numRows = 0;
    uint64_t numConfigs = 0;
    std::vector<std::string> configNames;

    uint64_t numCells() const { return numRows * numConfigs; }
    bool operator==(const SweepManifest&) const = default;
};

std::vector<uint8_t> serializeManifest(const SweepManifest& m);
bool deserializeManifest(const std::vector<uint8_t>& bytes,
                         SweepManifest& out);
bool saveManifest(const std::string& path, const SweepManifest& m);
bool loadManifest(const std::string& path, SweepManifest& out);

/**
 * A worker's claim on one matrix cell, stored as `<cell>.lease` next to the
 * cell file. Creation is atomic (O_CREAT|O_EXCL semantics), which is the
 * whole claim protocol; expiry is judged from the lease file's mtime, not
 * from the timestamp written inside it, so a worker whose wall clock is
 * wrong cannot make its own leases look fresh or stale. Readers still
 * compare that mtime against their local clock (leaseAgeSeconds), so a
 * fleet's clocks must agree with the file server to well within the lease
 * TTL — run NTP, and size the TTL above worst cell time + clock error.
 */
struct LeaseRecord
{
    std::string owner;            ///< "<hostname>:<pid>" diagnostic tag
    uint64_t pid = 0;
    int64_t shardId = -1;
    uint64_t acquiredUnixSec = 0; ///< informational only (see mtime note)
};

/** "<hostname>:<pid>" of the calling process (lease ownership tag). */
std::string processOwnerTag();

/** Atomically create the lease file; false if it already exists (someone
 *  else holds the claim) or on I/O error. The write is fsync'd. */
bool tryAcquireLease(const std::string& path, const LeaseRecord& r);

/** Read a lease (diagnostics); false if missing or corrupt. */
bool readLease(const std::string& path, LeaseRecord& out);

/** Seconds since the lease file was last written; negative if missing. */
double leaseAgeSeconds(const std::string& path);

/** Remove a lease file (release after commit, or reclaim of a stale one). */
bool removeLease(const std::string& path);

// ------------------------------------------------------------- cache keying

/** FNV-1a content hash (the checksum/keying primitive of this format). */
uint64_t fnv1a(const uint8_t* data, size_t n);

/** FNV-1a over a string (config names, etc.). */
uint64_t fnv1a(const std::string& s);

/** Replace filesystem-hostile characters with '_' (cache/checkpoint file
 *  and directory names). */
std::string sanitizeFileName(std::string name);

/** Content hash of a trace's serialized bytes: the checkpoint-key analogue
 *  of specHash() for hand-built (Suite::fromTraces) workloads. */
uint64_t traceContentHash(const Trace& t);

/**
 * Content hash over every WorkloadSpec field (and the serialization
 * version): the trace-cache key. Two specs that would generate different
 * traces hash differently; in particular targetOps is covered, so changing
 * CONSTABLE_TRACE_OPS never serves a stale cached trace.
 */
uint64_t specHash(const WorkloadSpec& spec);

/** Cache file path for a spec under a cache directory:
 *  <dir>/<sanitized name>-<16-hex specHash>.trace */
std::string traceCachePath(const std::string& dir, const WorkloadSpec& spec);

// -------------------------------------------------------------- cache trim

/**
 * Age/LRU retention policy for a trace-cache directory. Both caps default
 * to 0 = unlimited, so trimming is strictly opt-in (long-lived CI cache
 * dirs set CONSTABLE_TRACE_CACHE_MAX_MB / _MAX_AGE_DAYS; see
 * ExperimentOptions).
 */
struct TraceCacheTrimPolicy
{
    uint64_t maxBytes = 0;      ///< total *.trace size cap; 0 = uncapped
    uint64_t maxAgeSeconds = 0; ///< per-file age cap; 0 = uncapped

    bool enabled() const { return maxBytes != 0 || maxAgeSeconds != 0; }
};

/**
 * Enforce a trim policy over the *.trace files of a cache directory:
 * first drop entries older than maxAgeSeconds, then drop
 * least-recently-modified entries until the directory fits maxBytes.
 * Non-trace files are never touched; a missing directory is a no-op.
 * @return number of files deleted.
 */
size_t trimTraceCache(const std::string& dir,
                      const TraceCacheTrimPolicy& policy);

} // namespace constable

#endif
