/**
 * @file
 * The unified experiment-driving API every bench and example goes through:
 *
 *  - ExperimentOptions: one strict-parsed layer over the CONSTABLE_THREADS /
 *    CONSTABLE_SEED / CONSTABLE_TRACE_OPS / CONSTABLE_SUITE_LIMIT /
 *    CONSTABLE_TRACE_DIR / CONSTABLE_CHECKPOINT_DIR env knobs, plus the
 *    matching --threads-style CLI flags (CLI overrides env).
 *
 *  - Suite: owns workload specs, their traces, offline load inspections and
 *    global-stable PC sets, generated in parallel and transparently backed
 *    by the on-disk trace cache (trace/serialize.hh) when a trace directory
 *    is configured: each trace is generated once and loaded thereafter,
 *    keyed by a hash of the full spec.
 *
 *  - Experiment: a {suite x *named* configuration} sweep whose cells run
 *    through forEachJob() in process or through the shard tier
 *    (sim/shard.hh), with optional per-cell RunResult checkpointing (an
 *    interrupted sweep resumes from completed cells, bit-identical to an
 *    uninterrupted run), and the paper's category geomean / mean /
 *    box-whisker reporters as methods on the result.
 */

#ifndef CONSTABLE_SIM_EXPERIMENT_HH
#define CONSTABLE_SIM_EXPERIMENT_HH

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "inspector/load_inspector.hh"
#include "sim/batch.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "sim/sample.hh"
#include "sim/shard.hh"
#include "trace/generator.hh"
#include "workloads/suite.hh"

namespace constable {

/** Unified knobs for suite preparation and sweep execution. */
struct ExperimentOptions
{
    /** Batch threads, at most BatchOptions::kMaxThreads; 0 = the hardware
     *  thread count up to 16, 1 = serial replay. */
    unsigned threads = 0;
    /** Master seed for per-job RNG streams (randomized sweeps). */
    uint64_t seed = 0x5eed5eedull;
    /** Dynamic micro-ops per generated trace. */
    size_t traceOps = 60'000;
    /** Truncate the paper suite to its first N workloads. */
    size_t suiteLimit = SIZE_MAX;
    /** Trace-cache directory; empty disables the on-disk cache. */
    std::string traceDir;
    /** Per-cell checkpoint directory; empty disables checkpointing. */
    std::string checkpointDir;
    /** Process-level sharding: > 1 forks that many cooperating worker
     *  processes per sweep (see sim/shard.hh). */
    unsigned shards = 1;
    /** Chrome trace-event JSON written at exit (--trace-out /
     *  CONSTABLE_TRACE_OUT); non-empty arms the obs registry. */
    std::string traceOutPath;
    /** Metrics snapshot JSON written at exit (--metrics-out /
     *  CONSTABLE_METRICS_OUT); non-empty arms the obs registry. */
    std::string metricsOutPath;
    /** Min seconds between one-line stderr progress reports during a
     *  sweep; 0 disables them (status.json still updates when a
     *  checkpoint directory exists). */
    unsigned progressSec = 10;
    /** Phase-sampled simulation (--sample=phases:N,window:K /
     *  CONSTABLE_SAMPLE): when enabled, single-trace sweep cells run
     *  through runSampledTrace() instead of full fidelity, and checkpoint
     *  cells are keyed by the sample spec so sampled and full sweeps never
     *  share cells. SMT-pair sweeps reject sampling (fatal). */
    SampleOptions sample;

    /** All knobs from CONSTABLE_* env vars (strict: malformed -> fatal). */
    static ExperimentOptions fromEnv();

    /**
     * Env first, then CLI flags override: --threads=N --seed=N
     * --trace-ops=N --suite-limit=N --trace-dir=PATH --checkpoint-dir=PATH
     * --shards=N --sample=phases:N,window:K
     * ("--flag value" also accepted). --help prints usage and exits;
     * unknown arguments fatal().
     */
    static ExperimentOptions fromArgs(int argc, char** argv);

    /** The thread/seed subset consumed by the batch runner. */
    BatchOptions batch() const;

    /** The process-parallelism subset consumed by sim/shard.hh; fatal()
     *  on a shard count above ShardOptions::kMaxShards. */
    ShardOptions shard() const;
};

/** Width of a geomean table's name column: 14, or one more than the
 *  longest of @p names. */
int seriesNameWidth(const std::vector<std::string>& names);

/**
 * A prepared workload suite: specs plus generated (or cache-loaded) traces,
 * and optionally the offline load inspection with owned global-stable PC
 * sets. All preparation fans out over forEachJob's threads.
 */
class Suite
{
  public:
    /** The paper's 90-trace suite, scaled/truncated/cached per opts. */
    static Suite prepare(const ExperimentOptions& opts, bool inspect = true);

    /** Arbitrary spec list through the same generate-or-load path. */
    static Suite fromSpecs(std::vector<WorkloadSpec> specs,
                           const ExperimentOptions& opts,
                           bool inspect = true);

    /** Pre-built traces (e.g. ProgramBuilder micro-traces); never cached. */
    static Suite fromTraces(std::vector<Trace> traces, bool inspect = true);

    size_t size() const { return entries_.size(); }
    bool inspected() const { return inspected_; }

    const WorkloadSpec& spec(size_t i) const { return entries_[i].spec; }
    const Trace& trace(size_t i) const { return entries_[i].trace; }
    const LoadInspectorResult&
    inspection(size_t i) const
    {
        return entries_[i].inspection;
    }

    /** Owned per-workload global-stable PC set (empty if !inspected()). */
    const std::unordered_set<PC>&
    globalStablePcs(size_t i) const
    {
        return entries_[i].gs;
    }

    /** Matrix row views. */
    std::vector<const Trace*> tracePtrs() const;
    /** Per-row stats-classification sets; empty when not inspected. */
    std::vector<const std::unordered_set<PC>*> gsPtrs() const;
    /** Deterministic SMT2 co-run pairings (workloads/suite.hh). */
    std::vector<std::pair<const Trace*, const Trace*>> smtTracePairs() const;

    /** Trace-cache effectiveness (for tests and cache-warmth assertions). */
    size_t cacheHits() const { return cacheHits_; }
    size_t cacheMisses() const { return cacheMisses_; }

    /** Content fingerprint over all specs (checkpoint keying). */
    uint64_t contentHash() const;

    // ---- category reporters (shared by the paper's figure benches) ----

    /** Per-category and overall geomean of per-workload ratio series. */
    void printGeomeans(const std::string& header,
                       const std::vector<std::vector<double>>& series,
                       const std::vector<std::string>& series_names) const;

    /** Per-category and overall arithmetic mean (fraction-type series). */
    void printMeans(const std::string& header,
                    const std::vector<std::vector<double>>& series,
                    const std::vector<std::string>& series_names,
                    double scale = 100.0, const char* unit = "%") const;

    /** Box-and-whisker summary line per category (Figs 9, 18, 21). */
    void printBoxWhisker(const std::string& header,
                         const std::vector<double>& samples) const;

  private:
    struct Entry
    {
        WorkloadSpec spec;
        Trace trace;
        LoadInspectorResult inspection;
        std::unordered_set<PC> gs;
        bool fromCache = false;
        /** Checkpoint-keying hash: the spec hash for generated entries, a
         *  trace-content hash for hand-built (fromTraces) ones. */
        uint64_t key = 0;
    };

    std::vector<Entry> entries_;
    bool inspected_ = false;
    size_t cacheHits_ = 0;
    size_t cacheMisses_ = 0;
};

/** A finished sweep: the result matrix plus name-addressed accessors and
 *  the category reporters, bound to the suite that produced it. */
class ExperimentResult
{
  public:
    ExperimentResult(const Suite& suite, std::vector<std::string> names,
                     MatrixResult m, size_t resumed_cells)
        : suite_(&suite), names_(std::move(names)), m_(std::move(m)),
          resumedCells_(resumed_cells)
    {}

    const MatrixResult& matrix() const { return m_; }
    const Suite& suite() const { return *suite_; }
    size_t numRows() const { return m_.numRows; }

    /** Index of a named configuration; fatal() on unknown names. */
    size_t configIndex(const std::string& config) const;

    const RunResult&
    at(size_t row, size_t config) const
    {
        return m_.at(row, config);
    }

    const RunResult&
    at(size_t row, const std::string& config) const
    {
        return m_.at(row, configIndex(config));
    }

    /** Per-row speedup of one named config over another. */
    std::vector<double> speedups(const std::string& test,
                                 const std::string& base) const;

    /** One named stat read across every row of a config. */
    std::vector<double> statColumn(const std::string& config,
                                   const std::string& stat) const;

    /** Cells restored from a checkpoint instead of simulated. */
    size_t resumedCells() const { return resumedCells_; }

    // Reporters, delegating to the suite's category grouping.
    void printGeomeans(const std::string& header,
                       const std::vector<std::vector<double>>& series,
                       const std::vector<std::string>& series_names) const;
    void printMeans(const std::string& header,
                    const std::vector<std::vector<double>>& series,
                    const std::vector<std::string>& series_names,
                    double scale = 100.0, const char* unit = "%") const;
    void printBoxWhisker(const std::string& header,
                         const std::vector<double>& samples) const;

  private:
    const Suite* suite_;
    std::vector<std::string> names_;
    MatrixResult m_;
    size_t resumedCells_ = 0;
};

/**
 * A named {suite x configurations} sweep. Configurations are added under
 * unique names; run() executes the full matrix through forEachJob, and when
 * opts.checkpointDir is set every finished cell is persisted so a killed
 * sweep resumes from completed cells on the next invocation.
 *
 * Checkpoints are keyed by (experiment name, suite content, config names):
 * changing a configuration's *parameters* without renaming it requires
 * clearing the checkpoint directory.
 */
class Experiment
{
  public:
    Experiment(std::string name, const Suite& suite, ExperimentOptions opts);

    /** Row-independent column from a mechanism (and optional core) config. */
    Experiment& add(const std::string& config_name, MechanismConfig mech,
                    CoreConfig core = CoreConfig{});

    /** Row-dependent column (e.g. per-workload oracle presets). */
    Experiment& add(const std::string& config_name, ConfigFactory factory);

    /**
     * Column from a MechanismRegistry preset; the registry name is the
     * config name, so checkpoint/cell keys derive from registry names.
     * Oracle (perRow) presets become per-row factories over the suite's
     * global-stable PC sets and require an inspected suite.
     */
    Experiment& addPreset(const std::string& preset_name,
                          CoreConfig core = CoreConfig{});

    size_t numConfigs() const { return factories_.size(); }

    /** Run the {trace x config} matrix (gs sets attached when inspected).
     *  With opts.shards > 1 the matrix is executed by forked worker
     *  processes that commit cells into the checkpoint directory; the
     *  returned matrix is complete and bit-identical to a single-process
     *  run either way. */
    ExperimentResult run();

    /** Run the {SMT2 pair x config} matrix over smtTracePairs(). */
    ExperimentResult runSmt();

    /**
     * Assemble the result matrix purely from the checkpoint directory
     * (e.g. after an earlier run finished), without simulating anything;
     * fatal() if the sweep's manifest is absent or any cell is
     * missing/corrupt. Requires opts.checkpointDir.
     */
    ExperimentResult merge(bool smt = false);

  private:
    /** Keyed per-sweep checkpoint subdirectory + its manifest. */
    std::string checkpointDirFor(const std::string& root, bool smt,
                                 SweepManifest& manifest, size_t rows) const;

    ExperimentResult runCells(size_t rows, bool smt);

    std::string name_;
    const Suite* suite_;
    ExperimentOptions opts_;
    std::vector<std::string> names_;
    std::vector<ConfigFactory> factories_;
};

} // namespace constable

#endif
