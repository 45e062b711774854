/**
 * @file
 * Tests for the mechanism registry (sim/mechanisms.hh) and the declarative
 * scenario layer (sim/scenario.hh): every preset name resolves, its spec
 * round-trips through serialization, registry-built configs drive the core
 * bit-identically to hand-built ones, and malformed specs / scenario files
 * / --mech flags die with clear messages (strict-env style, matching
 * test_experiment.cc).
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

TEST(Registry, EveryPresetResolvesAndItsSpecRoundTrips)
{
    std::unordered_set<PC> gs { 0x40, 0x80 };
    for (const auto& p : MechanismRegistry::instance().presets()) {
        ASSERT_NE(MechanismRegistry::instance().find(p.name), nullptr);
        MechanismConfig m = mechFor(p.name, &gs);
        // Canonical serialization reproduces the registry spec...
        EXPECT_EQ(mechanismSpec(m), p.spec) << p.name;
        // ...and parses back to the same config (spec fixed point).
        MechanismConfig back = parseMechanismSpec(mechanismSpec(m), &gs);
        EXPECT_EQ(mechanismSpec(back), p.spec) << p.name;
        // Oracle presets consume the stable-PC set; others ignore it.
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

TEST(Registry, SpecGrammarCoversNonPresetCombinations)
{
    // The sensitivity-study corners: everything off, everything modified.
    MechanismConfig m = parseMechanismSpec(
        "no-mrn constable:none:amt-i:no-wrong-path");
    EXPECT_FALSE(m.mrn);
    EXPECT_TRUE(m.constable.enabled);
    EXPECT_FALSE(m.constable.eliminatePcRel);
    EXPECT_FALSE(m.constable.eliminateStackRel);
    EXPECT_FALSE(m.constable.eliminateRegRel);
    EXPECT_FALSE(m.constable.cvBitPinning);
    EXPECT_FALSE(m.constable.wrongPathUpdates);
    EXPECT_EQ(mechanismSpec(m),
              "no-mrn constable:none:amt-i:no-wrong-path");

    MechanismConfig two = parseMechanismSpec("constable:pcrel:stackrel");
    EXPECT_TRUE(two.constable.eliminatePcRel);
    EXPECT_TRUE(two.constable.eliminateStackRel);
    EXPECT_FALSE(two.constable.eliminateRegRel);
    EXPECT_EQ(mechanismSpec(two), "constable:pcrel:stackrel");
}

TEST(RegistryDeathTest, UnknownPresetAndMalformedSpecsAreFatal)
{
    EXPECT_EXIT(mechFor("constable-typo"), ::testing::ExitedWithCode(1),
                "unknown mechanism preset");
    EXPECT_EXIT(parseMechanismSpec("bogus"), ::testing::ExitedWithCode(1),
                "unknown token");
    EXPECT_EXIT(parseMechanismSpec("constable:bogus"),
                ::testing::ExitedWithCode(1), "unknown constable modifier");
    EXPECT_EXIT(parseMechanismSpec("ideal"), ::testing::ExitedWithCode(1),
                "exactly one mode");
    EXPECT_EXIT(parseMechanismSpec("ideal:perfect"),
                ::testing::ExitedWithCode(1), "unknown ideal mode");
    EXPECT_EXIT(parseMechanismSpec(""), ::testing::ExitedWithCode(1),
                "empty mechanism spec");
    EXPECT_EXIT(parseMechanismSpec("baseline:fast"),
                ::testing::ExitedWithCode(1), "takes no modifiers");
}

// ---------------------------------------------------------------- scenarios

TEST(Scenario, ParsesTheFullDirectiveSet)
{
    Scenario sc = parseScenarioText(
        "# a comment line\n"
        "name my-sweep\n"
        "mech baseline constable   # trailing comment\n"
        "mech eves,eves+constable\n"
        "smt on\n"
        "trace-ops 4000\n"
        "suite-limit 8\n"
        "\n",
        "test");
    EXPECT_EQ(sc.name, "my-sweep");
    std::vector<std::string> mechs = { "baseline", "constable", "eves",
                                       "eves+constable" };
    EXPECT_EQ(sc.mechs, mechs);
    EXPECT_TRUE(sc.smt);
    EXPECT_EQ(sc.traceOps, 4000u);
    EXPECT_EQ(sc.suiteLimit, 8u);
}

TEST(Scenario, HashInsideAValueIsNotACommentStart)
{
    // Regression: stripLine used to truncate at the first '#' anywhere,
    // silently turning "name spike#2" into "name spike". A '#' now only
    // starts a comment at line start or after whitespace.
    Scenario sc = parseScenarioText(
        "name spike#2   # trailing comment still stripped\n"
        "mech constable\n"
        "#full-line comment\n",
        "test");
    EXPECT_EQ(sc.name, "spike#2");
    ASSERT_EQ(sc.mechs.size(), 1u);
}

TEST(Scenario, MinimalScenarioInheritsEverythingElse)
{
    Scenario sc = parseScenarioText("mech constable\n", "test");
    EXPECT_EQ(sc.name, "scenario");
    EXPECT_FALSE(sc.smt);
    EXPECT_EQ(sc.traceOps, 0u);
    EXPECT_EQ(sc.suiteLimit, 0u);
    ASSERT_EQ(sc.mechs.size(), 1u);
}

TEST(ScenarioDeathTest, MalformedFilesAreFatalNotSilent)
{
    auto parse = [](const char* text) {
        return parseScenarioText(text, "scn");
    };
    EXPECT_EXIT(parse("speed 9000\n"), ::testing::ExitedWithCode(1),
                "unknown directive 'speed'");
    EXPECT_EXIT(parse("machine class {\n"), ::testing::ExitedWithCode(1),
                "unknown directive 'machine'");
    EXPECT_EXIT(parse("mech constable\nname a\nname b\n"),
                ::testing::ExitedWithCode(1), "duplicate 'name'");
    EXPECT_EXIT(parse("mech constable\nsmt maybe\n"),
                ::testing::ExitedWithCode(1), "'smt' must be");
    EXPECT_EXIT(parse("mech constable\ntrace-ops 0\n"),
                ::testing::ExitedWithCode(1), "must be >= 1");
    EXPECT_EXIT(parse("mech constable\ntrace-ops many\n"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parse("mech constable\nsuite-limit 3 7\n"),
                ::testing::ExitedWithCode(1), "one integer");
    EXPECT_EXIT(parse("mech warp-drive\n"), ::testing::ExitedWithCode(1),
                "unknown mechanism preset");
    EXPECT_EXIT(parse("mech constable constable\n"),
                ::testing::ExitedWithCode(1), "duplicate mechanism");
    EXPECT_EXIT(parse("mech\n"), ::testing::ExitedWithCode(1),
                "at least one preset");
    EXPECT_EXIT(parse("smt off\n"), ::testing::ExitedWithCode(1),
                "names no mechanisms");
    EXPECT_EXIT(loadScenarioFile("/no/such/file.scn"),
                ::testing::ExitedWithCode(1), "cannot read scenario file");
}

TEST(Scenario, SmtScenarioPrintsOverallGeomeansOnly)
{
    // SMT rows are trace pairs, not suite traces: the report is one
    // overall geomean per mechanism, with no per-category column.
    Scenario sc = parseScenarioText("name smt-four\n"
                                    "mech baseline,constable\n"
                                    "smt on\n"
                                    "suite-limit 4\n"
                                    "trace-ops 1000\n",
                                    "test");
    ExperimentOptions opts;
    opts.threads = 1;
    ::testing::internal::CaptureStdout();
    runScenario(sc, opts);
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

TEST(MechOptions, FlagAndEnvSelectRegistryPresets)
{
    const char* argv[] = { "prog", "--mech=baseline,constable",
                           "--mech=eves" };
    auto opts = ExperimentOptions::fromArgs(
        static_cast<int>(std::size(argv)), const_cast<char**>(argv));
    std::vector<std::string> expected = { "baseline", "constable", "eves" };
    EXPECT_EQ(opts.mechNames, expected);

    setenv("CONSTABLE_MECH", "constable-amt-i", 1);
    setenv("CONSTABLE_SCENARIO", "some.scn", 1);
    auto env = ExperimentOptions::fromEnv();
    ASSERT_EQ(env.mechNames.size(), 1u);
    EXPECT_EQ(env.mechNames[0], "constable-amt-i");
    EXPECT_EQ(env.scenarioFile, "some.scn");

    // CLI overrides env: a --mech list replaces (not extends) the env
    // selection, and displaces an env scenario; --scenario likewise
    // displaces env-provided mech names.
    const char* cliMech[] = { "prog", "--mech=baseline,constable" };
    auto m = ExperimentOptions::fromArgs(2, const_cast<char**>(cliMech));
    std::vector<std::string> cliOnly = { "baseline", "constable" };
    EXPECT_EQ(m.mechNames, cliOnly);
    EXPECT_TRUE(m.scenarioFile.empty());

    const char* cliScen[] = { "prog", "--scenario=other.scn" };
    auto sopt = ExperimentOptions::fromArgs(2, const_cast<char**>(cliScen));
    EXPECT_TRUE(sopt.mechNames.empty());
    EXPECT_EQ(sopt.scenarioFile, "other.scn");
    unsetenv("CONSTABLE_MECH");
    unsetenv("CONSTABLE_SCENARIO");
}

TEST(MechOptionsDeathTest, UnknownOrEmptyMechListsAreFatal)
{
    const char* bad[] = { "prog", "--mech=nonsense" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(bad)),
                ::testing::ExitedWithCode(1), "unknown mechanism preset");
    const char* empty[] = { "prog", "--mech=," };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(empty)),
                ::testing::ExitedWithCode(1), "names no mechanism presets");
    const char* dup[] = { "prog", "--mech=constable,constable" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(dup)),
                ::testing::ExitedWithCode(1), "duplicate mechanism preset");

    // --mech and --scenario cannot both drive the sweep.
    ExperimentOptions both;
    both.mechNames = { "constable" };
    both.scenarioFile = "x.scn";
    EXPECT_EXIT(runNamedSweepIfRequested("bench", both),
                ::testing::ExitedWithCode(1), "mutually exclusive");
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
