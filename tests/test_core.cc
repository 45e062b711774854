/**
 * @file
 * Integration tests of the out-of-order core: golden-check verification
 * (paper §8.5) across all mechanisms, conservation invariants, adversarial
 * store/eliminated-load ordering races, SMT2, oracle modes and scaling.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "inspector/load_inspector.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "sim/sample.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

Trace
smokeTrace(size_t category, size_t ops = 20'000)
{
    auto specs = smokeSuite(ops);
    return generateTrace(specs[category]);
}

// Parameterized over workload category x mechanism: the paper's §8.5
// functional verification, in miniature: no run may deliver a wrong value
// to retirement.
struct GoldenParam
{
    size_t category;
    int mechanism;
};

class GoldenCheck
    : public ::testing::TestWithParam<std::tuple<size_t, int>>
{
  public:
    static MechanismConfig
    mechConfigFor(int id, const Trace& trace)
    {
        switch (id) {
          case 0: return mechFor("baseline");
          case 1: return mechFor("constable");
          case 2: return mechFor("eves");
          case 3: return mechFor("eves+constable");
          case 4: return mechFor("elar");
          case 5: return mechFor("rfp");
          case 6: return mechFor("constable-amt-i");
          case 7: {
              auto gs = inspectLoads(trace).globalStablePcs();
              return mechFor("ideal-constable", &gs);
          }
          case 8: {
              auto gs = inspectLoads(trace).globalStablePcs();
              return mechFor("ideal-stable-lvp", &gs);
          }
          default: {
              auto gs = inspectLoads(trace).globalStablePcs();
              return mechFor("ideal-stable-lvp-nofetch", &gs);
          }
        }
    }
};

TEST_P(GoldenCheck, EveryRetiredLoadMatchesFunctionalModel)
{
    auto [category, mechanism] = GetParam();
    Trace t = smokeTrace(category);
    SystemConfig cfg { CoreConfig{}, GoldenCheck::mechConfigFor(mechanism, t) };
    // runTrace() panics on a golden-check failure; also verify invariants.
    RunResult r = runTrace(t, cfg);
    EXPECT_FALSE(r.goldenCheckFailed);
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_EQ(static_cast<uint64_t>(r.stats.get("loads.retired")),
              t.countClass(OpClass::Load));
    EXPECT_GT(r.ipc(), 0.1);
    EXPECT_LT(r.ipc(), 6.01);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenCheck,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)));

TEST(Core, DeterministicCycles)
{
    Trace t = smokeTrace(0, 10'000);
    SystemConfig cfg { CoreConfig{}, mechFor("constable") };
    RunResult a = runTrace(t, cfg);
    RunResult b = runTrace(t, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.get("loads.eliminated"),
              b.stats.get("loads.eliminated"));
}

TEST(Core, ConstableEliminatesSubstantialFraction)
{
    Trace t = smokeTrace(1, 40'000); // Enterprise: stable-heavy
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    double frac = r.stats.get("loads.eliminated") /
                  r.stats.get("loads.retired");
    EXPECT_GT(frac, 0.10);
    EXPECT_LT(frac, 0.60);
}

TEST(Core, BaselineNeverEliminates)
{
    Trace t = smokeTrace(0, 10'000);
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("baseline") });
    EXPECT_DOUBLE_EQ(r.stats.get("loads.eliminated"), 0.0);
}

TEST(Core, ConstableReducesRsAllocationsAndL1dAccesses)
{
    Trace t = smokeTrace(1, 40'000);
    RunResult base = runTrace(t, { CoreConfig{}, mechFor("baseline") });
    RunResult cons = runTrace(t, { CoreConfig{}, mechFor("constable") });
    EXPECT_LT(cons.stats.get("rs.allocs"), base.stats.get("rs.allocs"));
    EXPECT_LT(cons.stats.get("mem.l1d.reads"),
              base.stats.get("mem.l1d.reads"));
}

TEST(Core, AdversarialStoreRaceIsCaughtByDisambiguation)
{
    // A load becomes stable, then an older store changes its value in the
    // same rename neighbourhood: the eliminated load must be squashed and
    // re-executed (paper §6.5 / Fig 10), and the golden check must hold.
    ProgramBuilder b(1, 16);
    b.mem().write(0x5000, 7, 8);
    // Warm to threshold with benign instances.
    for (int i = 0; i < 40; ++i) {
        b.load(0x100, RAX, AddrMode::PcRel, 0x5000);
        b.alu(0x104, RCX, RAX);
        for (int j = 0; j < 6; ++j)
            b.alu(0x110 + 4 * j, RDX, RCX);
    }
    // Race phase: store (new value) immediately before the load.
    for (int k = 0; k < 30; ++k) {
        uint64_t nv = 1000 + k;
        b.store(0x200, AddrMode::PcRel, 0x5000, nv);
        b.load(0x100, RAX, AddrMode::PcRel, 0x5000);
        b.alu(0x104, RCX, RAX);
        // Re-stabilize between races.
        for (int i = 0; i < 35; ++i) {
            b.load(0x100, RAX, AddrMode::PcRel, 0x5000);
            b.alu(0x104, RCX, RAX);
        }
    }
    Trace t = b.finish("race", "Test");
    ASSERT_TRUE(validateTrace(t).empty());
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    EXPECT_FALSE(r.goldenCheckFailed);
    EXPECT_GT(r.stats.get("loads.eliminated"), 0.0);
}

TEST(Core, SnoopResetsEliminationMidTrace)
{
    ProgramBuilder b(1, 16);
    b.mem().write(0x5000, 7, 8);
    for (int i = 0; i < 120; ++i) {
        b.load(0x100, RAX, AddrMode::PcRel, 0x5000);
        b.alu(0x104, RCX, RAX);
        // Filler work so training keeps pace with rename.
        for (int j = 0; j < 8; ++j)
            b.mul(0x110 + 4 * j, RDX, RCX, RAX);
        if (i == 90)
            b.snoopHere(0x5000);
    }
    Trace t = b.finish("snoop", "Test");
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    EXPECT_FALSE(r.goldenCheckFailed);
    EXPECT_GT(r.stats.get("constable.amt.invalidations"), 0.0);
}

TEST(Core, IdealConstableBeatsIdealStableLvp)
{
    // Paper §4.4 / Fig 7: eliminating execution must outperform perfect
    // value prediction of the same loads.
    Trace t = smokeTrace(4, 40'000); // Server: stable-heavy
    auto insp = inspectLoads(t);
    auto pcs = insp.globalStablePcs();
    RunResult base = runTrace(t, { CoreConfig{}, mechFor("baseline") });
    RunResult lvp = runTrace(
        t, { CoreConfig{}, mechFor("ideal-stable-lvp", &pcs) });
    RunResult cons = runTrace(
        t, { CoreConfig{}, mechFor("ideal-constable", &pcs) });
    EXPECT_GE(speedup(lvp, base), 0.99);
    EXPECT_GT(speedup(cons, base), speedup(lvp, base));
}

TEST(Core, IdealNoFetchBetweenLvpAndConstable)
{
    Trace t = smokeTrace(4, 40'000);
    auto pcs = inspectLoads(t).globalStablePcs();
    RunResult lvp = runTrace(
        t, { CoreConfig{}, mechFor("ideal-stable-lvp", &pcs) });
    RunResult nofetch = runTrace(
        t, { CoreConfig{}, mechFor("ideal-stable-lvp-nofetch", &pcs) });
    RunResult cons = runTrace(
        t, { CoreConfig{}, mechFor("ideal-constable", &pcs) });
    EXPECT_GE(static_cast<double>(lvp.cycles) + 1,
              static_cast<double>(nofetch.cycles));
    EXPECT_GE(static_cast<double>(nofetch.cycles) + 1,
              static_cast<double>(cons.cycles));
}

TEST(Core, WiderLoadExecutionHelpsBaseline)
{
    Trace t = smokeTrace(4, 40'000);
    CoreConfig narrow;
    CoreConfig wide;
    wide.loadPorts = 6;
    RunResult rn = runTrace(t, { narrow, mechFor("baseline") });
    RunResult rw = runTrace(t, { wide, mechFor("baseline") });
    EXPECT_LE(rw.cycles, rn.cycles);
}

TEST(Core, DeeperPipelineHelpsBaseline)
{
    Trace t = smokeTrace(2, 40'000);
    CoreConfig deep;
    deep.depthScale = 2.0;
    RunResult r1 = runTrace(t, { CoreConfig{}, mechFor("baseline") });
    RunResult r2 = runTrace(t, { deep, mechFor("baseline") });
    EXPECT_LE(r2.cycles, r1.cycles + r1.cycles / 50);
}

TEST(Core, ModeFilteredRunsEliminateOnlyThatMode)
{
    Trace t = smokeTrace(1, 40'000);
    RunResult r = runTrace(
        t, { CoreConfig{}, mechFor("constable-stackrel") });
    EXPECT_GT(r.stats.get("loads.elim.stackRel"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("loads.elim.pcRel"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("loads.elim.regRel"), 0.0);
}

TEST(Core, EliminationViolationsAreRare)
{
    // Paper Fig 21a: only ~0.09% of eliminated loads violate ordering.
    Trace t = smokeTrace(1, 40'000);
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    double frac = ratio(r.stats.get("ordering.elimViolations"),
                        r.stats.get("loads.eliminated"));
    EXPECT_LT(frac, 0.02);
}

TEST(Core, XprfRejectionsAreBounded)
{
    Trace t = smokeTrace(1, 40'000);
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    double frac = ratio(r.stats.get("constable.xprfRejected"),
                        r.stats.get("loads.eliminated") +
                            r.stats.get("constable.xprfRejected"));
    EXPECT_LT(frac, 0.25);
}

TEST(Core, WrongPathUpdatesLoseLittlePerformance)
{
    // Paper Fig 9b: enabling wrong-path updates changes performance by a
    // small amount.
    Trace t = smokeTrace(3, 40'000); // ISPEC: branchy
    MechanismConfig on = mechFor("constable");
    MechanismConfig off = mechFor("constable");
    off.constable.wrongPathUpdates = false;
    RunResult ron = runTrace(t, { CoreConfig{}, on });
    RunResult roff = runTrace(t, { CoreConfig{}, off });
    double change = std::abs(speedup(ron, roff) - 1.0);
    EXPECT_LT(change, 0.05);
}

TEST(Core, SldUpdateRateMatchesPaperScale)
{
    // Paper Fig 9a: ~0.28 SLD updates/cycle on average; we require the
    // same order of magnitude.
    Trace t = smokeTrace(1, 40'000);
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    EXPECT_LT(r.stats.get("sld.updates.perCycle"), 1.5);
}

// --------------------------------------------------------------- SMT2

TEST(Smt, RunsAndPassesGoldenCheck)
{
    Trace a = smokeTrace(0, 15'000);
    Trace b = smokeTrace(4, 15'000);
    RunResult r = runSmtPair(a, b, { CoreConfig{}, mechFor("baseline") });
    EXPECT_FALSE(r.goldenCheckFailed);
    EXPECT_EQ(r.instructions, a.size() + b.size());
}

TEST(Smt, SharingBeatsSerialExecution)
{
    Trace a = smokeTrace(0, 15'000);
    Trace b = smokeTrace(4, 15'000);
    SystemConfig cfg { CoreConfig{}, mechFor("baseline") };
    RunResult smt = runSmtPair(a, b, cfg);
    RunResult sa = runTrace(a, cfg);
    RunResult sb = runTrace(b, cfg);
    EXPECT_LT(smt.cycles, sa.cycles + sb.cycles);
}

TEST(Smt, ConstableWorksUnderSmt)
{
    Trace a = smokeTrace(1, 15'000);
    Trace b = smokeTrace(4, 15'000);
    RunResult base = runSmtPair(a, b, { CoreConfig{}, mechFor("baseline") });
    RunResult cons = runSmtPair(a, b, { CoreConfig{}, mechFor("constable") });
    EXPECT_FALSE(cons.goldenCheckFailed);
    EXPECT_GT(cons.stats.get("loads.eliminated"), 0.0);
    EXPECT_GT(speedup(cons, base), 0.97);
}

TEST(Core, RecycledStateMatchesFreshThread)
{
    // Cores recycle cache tag arrays and event-wheel slabs per thread. A
    // cell must not see what earlier cells on its thread left behind:
    // other geometries, mechanisms, an SMT2 pair and an abandoned run.
    Trace t = smokeTrace(1, 2'000);
    Trace a = smokeTrace(0, 2'000);
    Trace b = smokeTrace(4, 2'000);
    SystemConfig cons { CoreConfig{}, mechFor("constable") };
    std::vector<uint8_t> fresh;
    std::thread([&] {
        fresh = serializeRunResult(runTrace(t, cons));
    }).join();
    std::vector<uint8_t> reused;
    std::thread([&] {
        runSmtPair(a, b, { CoreConfig{}, mechFor("baseline") });
        CoreConfig shallow;
        shallow.depthScale = 0.5;
        runTrace(a, { shallow, mechFor("baseline") });
        runTrace(b, { CoreConfig{}, mechFor("eves+constable") });
        runTrace(a, { CoreConfig{}, mechFor("rfp") });
        // A sampled run squashes its pipeline after each measured
        // stretch, so its core dies with events still on the wheel.
        runSampledTrace(smokeTrace(1, 8'000), CoreConfig{}, cons.mech,
                        SampleOptions::parse("phases:2,window:500,fill:256,"
                                             "warm:512,spread:1"),
                        1);
        reused = serializeRunResult(runTrace(t, cons));
    }).join();
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(fresh, reused);
}

TEST(EventWheel, RecycledBucketsStartEmpty)
{
    std::thread([] {
        {
            EventWheel dying;
            for (unsigned i = 0; i < kEventWheelSize; i += 7)
                dying[i].push_back(Event{ 1, 2, EventKind::ExecDone });
        }
        EventWheel w;
        EXPECT_GT(w[0].capacity(), 0u) << "wheel was not recycled";
        for (unsigned i = 0; i < kEventWheelSize; ++i)
            EXPECT_TRUE(w[i].empty()) << "bucket " << i;
    }).join();
}

TEST(Runner, RelocateTraceShiftsEverything)
{
    Trace t = smokeTrace(0, 2'000);
    Trace r = relocateTrace(t, 0x1000, 0x100000);
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(r.ops[i].pc, t.ops[i].pc + 0x1000);
        if (t.ops[i].isMem()) {
            EXPECT_EQ(r.ops[i].effAddr, t.ops[i].effAddr + 0x100000);
        }
    }
}

TEST(Runner, SpeedupMath)
{
    RunResult a, b;
    a.cycles = 50;
    b.cycles = 100;
    EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
}

TEST(Runner, PresetsSelectMechanisms)
{
    EXPECT_FALSE(mechFor("baseline").constable.enabled);
    EXPECT_TRUE(mechFor("baseline").mrn);
    EXPECT_TRUE(mechFor("constable").constable.enabled);
    EXPECT_TRUE(mechFor("eves").eves);
    EXPECT_TRUE(mechFor("eves+constable").eves);
    EXPECT_TRUE(mechFor("eves+constable").constable.enabled);
    EXPECT_TRUE(mechFor("elar").elar);
    EXPECT_TRUE(mechFor("rfp").rfp);
    EXPECT_FALSE(mechFor("constable-amt-i").constable.cvBitPinning);
    std::unordered_set<PC> idealPcs { 0x100 };
    auto ideal = mechFor("ideal-constable", &idealPcs);
    EXPECT_EQ(static_cast<int>(ideal.ideal.mode),
              static_cast<int>(IdealMode::Constable));
    EXPECT_EQ(ideal.ideal.stablePcs.size(), 1u);
}

// ------------------------------------------------- idle-cycle fast-forward

/** One long-latency op over an otherwise drained pipeline: the completion
 *  event is the only thing in the machine, so the idle-cycle fast-forward
 *  must jump the intervening window and land cycle-exactly on it. */
static RunResult
runWithDivLatency(unsigned div_lat)
{
    ProgramBuilder b(1, 16);
    b.loadImm(0x100, RAX, 6);
    b.div(0x104, RCX, RAX, RAX);
    b.alu(0x108, RDX, RCX);
    Trace t = b.finish("wheel-edge", "Test");
    CoreConfig cfg;
    cfg.divLat = div_lat;
    return runTrace(t, { cfg, mechFor("baseline") });
}

TEST(FastForward, EventAtWheelBoundaryIsCycleExact)
{
    // kWheelSize-1 is the farthest an event can sit in the wheel: the skip
    // window and the occupancy-bitmap search both wrap exactly here.
    RunResult atEdge = runWithDivLatency(OooCore::kWheelSize - 1);
    RunResult oneLess = runWithDivLatency(OooCore::kWheelSize - 2);
    EXPECT_EQ(atEdge.cycles, oneLess.cycles + 1);
    EXPECT_EQ(atEdge.instructions, oneLess.instructions);
}

TEST(FastForward, DelaysBeyondTheWheelClampToItsEdge)
{
    RunResult atEdge = runWithDivLatency(OooCore::kWheelSize - 1);
    RunResult clamped = runWithDivLatency(OooCore::kWheelSize + 500);
    EXPECT_EQ(clamped.cycles, atEdge.cycles);
}

TEST(FastForward, SkippedWindowsKeepStallAccountingExact)
{
    // Every cycle of the idle window renames nothing; the bulk-accounted
    // renameZero counter must cover the whole run minus the active cycles,
    // exactly as the cycle-by-cycle loop would.
    RunResult r = runWithDivLatency(OooCore::kWheelSize - 1);
    EXPECT_GE(r.stats.get("stall.renameZero"),
              static_cast<double>(OooCore::kWheelSize) - 64);
    EXPECT_EQ(r.stats.get("cycles"),
              static_cast<double>(r.cycles));
}

} // namespace
} // namespace constable
