/**
 * @file
 * Tests for the mechanism registry (sim/mechanisms.hh) and the preset
 * sweep runner (sim/scenario.hh): every preset name resolves,
 * registry-built configs drive the core bit-identically to hand-built
 * ones, and malformed preset lists die with clear messages (strict-env
 * style, matching test_experiment.cc).
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "sim/experiment.hh"
#include "sim/mechanisms.hh"
#include "sim/scenario.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, ListsTheSixteenPresetsInCanonicalOrder)
{
    const char* expected[] = {
        "baseline", "constable", "eves", "eves+constable",
        "elar", "rfp", "elar+constable", "rfp+constable",
        "constable-pcrel", "constable-stackrel", "constable-regrel",
        "constable-amt-i", "ideal-stable-lvp", "ideal-stable-lvp-nofetch",
        "ideal-constable", "eves+ideal-constable",
    };
    const auto& presets = MechanismRegistry::instance().presets();
    ASSERT_EQ(presets.size(), std::size(expected));
    for (size_t i = 0; i < presets.size(); ++i) {
        EXPECT_EQ(presets[i].name, expected[i]);
        EXPECT_FALSE(presets[i].description.empty()) << presets[i].name;
    }
}

TEST(Registry, EveryPresetResolvesAndOnlyOraclesTakeTheStableSet)
{
    std::unordered_set<PC> gs { 0x40, 0x80 };
    for (const auto& p : MechanismRegistry::instance().presets()) {
        ASSERT_NE(MechanismRegistry::instance().find(p.name), nullptr);
        MechanismConfig m = mechFor(p.name, &gs);
        // Oracle presets consume the stable-PC set; others ignore it.
        EXPECT_EQ(p.perRow, p.config.ideal.mode != IdealMode::None)
            << p.name;
        EXPECT_EQ(m.ideal.stablePcs.size(), p.perRow ? gs.size() : 0u)
            << p.name;
    }
}

TEST(Registry, PresetsMatchHandBuiltConfigsBitIdentically)
{
    // Inline rebuilds of the deleted factory functions; the full 16-preset
    // proof over the paper suite is the golden-snapshot test.
    MechanismConfig evesConstable;
    evesConstable.eves = true;
    evesConstable.constable.enabled = true;

    MechanismConfig amtI;
    amtI.constable.enabled = true;
    amtI.constable.cvBitPinning = false;

    MechanismConfig stackOnly;
    stackOnly.constable.enabled = true;
    stackOnly.constable.eliminatePcRel = false;
    stackOnly.constable.eliminateRegRel = false;

    auto specs = smokeSuite(1500);
    Trace t = generateTrace(specs[0]);
    auto gs = inspectLoads(t).globalStablePcs();

    MechanismConfig idealC;
    idealC.ideal.mode = IdealMode::Constable;
    idealC.ideal.stablePcs = gs;

    struct Case
    {
        const char* preset;
        MechanismConfig hand;
    };
    const Case cases[] = {
        { "baseline", MechanismConfig{} },
        { "eves+constable", evesConstable },
        { "constable-amt-i", amtI },
        { "constable-stackrel", stackOnly },
        { "ideal-constable", idealC },
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.preset);
        RunResult viaRegistry =
            runTrace(t, { CoreConfig{}, mechFor(c.preset, &gs) }, &gs);
        RunResult viaHand = runTrace(t, { CoreConfig{}, c.hand }, &gs);
        EXPECT_EQ(serializeRunResult(viaRegistry),
                  serializeRunResult(viaHand));
    }
}

TEST(RegistryDeathTest, UnknownPresetIsFatal)
{
    EXPECT_EXIT(mechFor("constable-typo"), ::testing::ExitedWithCode(1),
                "unknown mechanism preset");
}

// ---------------------------------------------------------------- scenarios

TEST(Scenario, SmtScenarioPrintsOverallGeomeansOnly)
{
    // SMT rows are trace pairs, not suite traces: the report is one
    // overall geomean per mechanism, with no per-category column.
    Scenario sc;
    sc.mechs = { "baseline", "constable" };
    sc.smt = true;
    ExperimentOptions opts;
    opts.threads = 1;
    opts.suiteLimit = 4;
    opts.traceOps = 1000;
    Suite suite = Suite::prepare(opts, /*inspect=*/true);
    ExperimentResult res = runScenario(sc, suite, opts);
    ::testing::internal::CaptureStdout();
    printScenarioReport(sc, res);
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("speedup over baseline (SMT2, 2 pairs)"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("GEOMEAN"), std::string::npos) << out;
    EXPECT_NE(out.find("\nconstable "), std::string::npos) << out;
    EXPECT_NE(out.find("result fingerprint: "), std::string::npos) << out;
    // The first four paper-suite traces are all Client workloads.
    EXPECT_EQ(out.find("Client"), std::string::npos) << out;
}

// ------------------------------------------------------- options plumbing

TEST(MechOptionsDeathTest, UnknownOrEmptyMechListsAreFatal)
{
    std::vector<std::string> out;
    appendPresetNames("--mech", "baseline,constable", out);
    appendPresetNames("--mech", "eves", out);
    std::vector<std::string> expected = { "baseline", "constable", "eves" };
    EXPECT_EQ(out, expected);

    EXPECT_EXIT(appendPresetNames("--mech", "nonsense", out),
                ::testing::ExitedWithCode(1), "unknown mechanism preset");
    EXPECT_EXIT(appendPresetNames("--mech", ",", out),
                ::testing::ExitedWithCode(1), "names no mechanism presets");
    EXPECT_EXIT(appendPresetNames("--mech", "rfp,rfp", out),
                ::testing::ExitedWithCode(1), "duplicate mechanism preset");
    // A name already on the list is a duplicate too.
    EXPECT_EXIT(appendPresetNames("--mech", "constable", out),
                ::testing::ExitedWithCode(1), "duplicate mechanism preset");
}

TEST(MechOptionsDeathTest, BenchOptionsRejectMechAndScenario)
{
    // Only constable-sweep runs a sweep chosen by preset name; every
    // other binary's option layer treats both selectors as unknown.
    const char* mech[] = { "prog", "--mech=constable" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(mech)),
                ::testing::ExitedWithCode(1),
                "unknown argument '--mech=constable'");
    const char* scen[] = { "prog", "--scenario=x" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(scen)),
                ::testing::ExitedWithCode(1),
                "unknown argument '--scenario=x'");
}

TEST(MechOptionsDeathTest, OraclePresetNeedsInspectedSuite)
{
    ExperimentOptions opts;
    opts.threads = 1;
    opts.traceOps = 1500;
    auto specs = smokeSuite(1500);
    specs.resize(1);
    Suite suite = Suite::fromSpecs(specs, opts, /*inspect=*/false);
    Experiment e("oracle", suite, opts);
    EXPECT_EXIT(e.addPreset("ideal-constable"),
                ::testing::ExitedWithCode(1), "inspected suite");
}

} // namespace
} // namespace constable
