/**
 * @file
 * Declarative scenario files and run-time mechanism selection: new sweeps
 * without recompiling. A scenario is a small line-based text file,
 *
 *     # Fig 13 without the binary's compiled-in preset table
 *     name addr-modes
 *     mech baseline constable-pcrel constable-stackrel
 *     mech constable-regrel constable
 *     smt off
 *     trace-ops 3000      # optional; inherits --trace-ops when absent
 *     suite-limit 6       # optional; inherits --suite-limit when absent
 *
 * naming registry presets (sim/mechanisms.hh). Every bench driver calls
 * runNamedSweepIfRequested() first: `--mech=<name>[,<name>...]` or
 * `--scenario=<file>` (CONSTABLE_MECH / CONSTABLE_SCENARIO) replaces the
 * bench's compiled-in figure with the named sweep. The generic runner
 * prints per-config geomean speedups over the first named config plus the
 * byte-level FNV result fingerprint, so a scenario run can be diffed for
 * bit-identity against the preset-table path (the CI scenario-smoke job
 * does exactly that). Parsing is strict: unknown directives, malformed
 * numbers, duplicate scalars and unknown preset names all fatal().
 */

#ifndef CONSTABLE_SIM_SCENARIO_HH
#define CONSTABLE_SIM_SCENARIO_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace constable {

/** A parsed scenario: which presets over which suite, SMT or not. */
struct Scenario
{
    std::string name = "scenario";      ///< experiment/checkpoint identity
    std::vector<std::string> mechs;     ///< registry preset names, >= 1
    bool smt = false;                   ///< run the SMT2 pair matrix
    size_t traceOps = 0;                ///< 0 = inherit ExperimentOptions
    size_t suiteLimit = 0;              ///< 0 = inherit ExperimentOptions
};

/** Parse scenario text; @p what names the source in fatal() messages. */
Scenario parseScenarioText(const std::string& text, const std::string& what);

/** Load and parse a scenario file; fatal() on I/O or parse errors. */
Scenario loadScenarioFile(const std::string& path);

/** Byte-identity fingerprint: FNV chained over every cell's serialized
 *  RunResult in row-major order (same chain constable-sweep prints). */
uint64_t resultFingerprint(const MatrixResult& m);

/** Print the standard "result fingerprint: <16 hex>" line. */
void printResultFingerprint(const ExperimentResult& res);

/** Prepare the suite and run @p sc through the Experiment API (honoring
 *  checkpoints/shards from @p opts), then print the generic report. */
void runScenario(const Scenario& sc, ExperimentOptions opts);

/**
 * The bench-driver entry point: when @p opts names mechanisms (--mech) or
 * a scenario file (--scenario), run that sweep instead of the caller's
 * compiled-in figure and return true (the bench should exit 0). Returns
 * false when neither was requested. fatal() when both are.
 */
bool runNamedSweepIfRequested(const std::string& bench_name,
                              const ExperimentOptions& opts);

} // namespace constable

#endif
