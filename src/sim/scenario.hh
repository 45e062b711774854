/**
 * @file
 * Sweeps named by registry preset, and the byte-level result fingerprint.
 * A scenario is a list of registry presets (sim/mechanisms.hh) run over
 * the prepared suite, one row per trace or per SMT2 trace pair;
 * constable-sweep is the program that runs one (`--mech=<name>[,...]`,
 * `--smt`). The runner prints per-preset geomean speedups over the first
 * preset plus the FNV result fingerprint, so a sweep can be diffed for
 * bit-identity against a figure binary running the same preset list (CI's
 * release-smoke job does exactly that with fig13).
 */

#ifndef CONSTABLE_SIM_SCENARIO_HH
#define CONSTABLE_SIM_SCENARIO_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace constable {

/** Which presets over which rows. */
struct Scenario
{
    std::vector<std::string> mechs; ///< registry preset names, >= 1
    bool smt = false;               ///< run the SMT2 pair matrix
};

/** Byte-identity fingerprint: FNV chained over every cell's serialized
 *  RunResult in row-major order (same chain constable-sweep prints). */
uint64_t resultFingerprint(const MatrixResult& m);

/** Print the standard "result fingerprint: <16 hex>" line. */
void printResultFingerprint(const ExperimentResult& res);

/** Run @p sc over @p suite through the Experiment API, honouring the
 *  checkpoints and shards of @p opts; with @p merge_only, assemble the
 *  matrix from opts.checkpointDir instead and simulate nothing
 *  (Experiment::merge). @p suite must outlive the result. */
ExperimentResult runScenario(const Scenario& sc, const Suite& suite,
                             const ExperimentOptions& opts,
                             bool merge_only = false);

/** The generic report: geomean speedups over the first preset (per
 *  category and overall, or overall only for SMT pairs), the cell count
 *  and the result fingerprint. */
void printScenarioReport(const Scenario& sc, const ExperimentResult& res);

} // namespace constable

#endif
