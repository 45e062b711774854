/**
 * @file
 * Tests for the trace substrate: memory image, program builder, generator
 * invariant, fragments and the workload suite.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "inspector/load_inspector.hh"
#include "trace/builder.hh"
#include "trace/generator.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

TEST(MemImage, ZeroInitialized)
{
    MemImage m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(MemImage, WriteReadRoundTrip)
{
    MemImage m;
    m.write(0x1000, 0xdeadbeefcafef00dull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0xdeadbeefcafef00dull);
}

TEST(MemImage, LittleEndianSubword)
{
    MemImage m;
    m.write(0x2000, 0x0807060504030201ull, 8);
    EXPECT_EQ(m.read(0x2000, 1), 0x01u);
    EXPECT_EQ(m.read(0x2000, 2), 0x0201u);
    EXPECT_EQ(m.read(0x2000, 4), 0x04030201u);
    EXPECT_EQ(m.read(0x2004, 4), 0x08070605u);
}

TEST(MemImage, CrossPageAccess)
{
    MemImage m;
    Addr a = 4096 - 4;
    m.write(a, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(a, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.numPages(), 2u);

    // An access ending exactly at the page boundary stays on one page; a
    // read crossing into a page never written sees zeros there.
    MemImage edge;
    edge.write(4096 - 8, 0x1122334455667788ull, 8);
    EXPECT_EQ(edge.read(4096 - 8, 8), 0x1122334455667788ull);
    EXPECT_EQ(edge.numPages(), 1u);
    EXPECT_EQ(edge.read(4096 - 4, 8), 0x11223344u);
}

TEST(MemImage, PartialOverwrite)
{
    MemImage m;
    m.write(0x100, 0xffffffffffffffffull, 8);
    m.write(0x102, 0x00, 1);
    EXPECT_EQ(m.read(0x100, 8), 0xffffffffff00ffffull);
}

TEST(Builder, RegisterValueTracking)
{
    ProgramBuilder b(1, 16);
    b.loadImm(0x100, RAX, 1234);
    EXPECT_EQ(b.regVal(RAX), 1234u);
    b.move(0x104, RCX, RAX);
    EXPECT_EQ(b.regVal(RCX), 1234u);
    b.zero(0x108, RCX);
    EXPECT_EQ(b.regVal(RCX), 0u);
    EXPECT_EQ(b.numOps(), 3u);
}

TEST(Builder, LoadReadsImageAndWritesDst)
{
    ProgramBuilder b(1, 16);
    b.mem().write(0x9000, 777, 8);
    uint64_t v = b.load(0x100, RDX, AddrMode::PcRel, 0x9000);
    EXPECT_EQ(v, 777u);
    EXPECT_EQ(b.regVal(RDX), 777u);
}

TEST(Builder, StoreUpdatesImage)
{
    ProgramBuilder b(1, 16);
    b.store(0x100, AddrMode::PcRel, 0x9000, 42);
    EXPECT_EQ(b.mem().read(0x9000, 8), 42u);
}

TEST(Builder, StackAdjMovesRsp)
{
    ProgramBuilder b(1, 16);
    uint64_t before = b.regVal(RSP);
    b.stackAdj(0x100, -64);
    EXPECT_EQ(b.regVal(RSP), before - 64);
    b.stackAdj(0x104, 64);
    EXPECT_EQ(b.regVal(RSP), before);
}

TEST(Builder, PersistentRegPoolExhausts16)
{
    ProgramBuilder b(1, 16);
    unsigned got = 0;
    while (b.allocPersistentReg() != kNoReg)
        ++got;
    EXPECT_EQ(got, 9u); // RBX,R12-R15,RSI,RDI,R8,R9
}

TEST(Builder, PersistentRegPoolLargerWithApx)
{
    ProgramBuilder b(1, 32);
    unsigned got = 0;
    while (b.allocPersistentReg() != kNoReg)
        ++got;
    EXPECT_EQ(got, 25u);
}

TEST(Builder, SnoopRecorded)
{
    ProgramBuilder b(1, 16);
    b.nop(0x100);
    b.snoopHere(0xabc0);
    b.nop(0x104);
    Trace t = b.finish("t", "Client");
    ASSERT_EQ(t.snoops.size(), 1u);
    EXPECT_EQ(t.snoops[0].beforeSeq, 1u);
    EXPECT_EQ(t.snoops[0].addr, 0xabc0u);
}

TEST(Validate, CleanTracePasses)
{
    ProgramBuilder b(1, 16);
    b.loadImm(0x100, RBX, 0x5000);
    for (int i = 0; i < 5; ++i)
        b.load(0x104, RAX, AddrMode::RegRel, 0x5000, RBX);
    Trace t = b.finish("t", "Client");
    EXPECT_TRUE(validateTrace(t).empty());
}

TEST(Validate, AddressChangeWithoutWriteFlagged)
{
    // Hand-build a violating trace: same load PC, two different addresses,
    // no source-register write in between.
    Trace t;
    MicroOp ld;
    ld.pc = 0x100;
    ld.cls = OpClass::Load;
    ld.addrMode = AddrMode::RegRel;
    ld.src[0] = RBX;
    ld.dst = RAX;
    ld.effAddr = 0x5000;
    t.ops.push_back(ld);
    ld.effAddr = 0x6000;
    t.ops.push_back(ld);
    EXPECT_FALSE(validateTrace(t).empty());
}

TEST(Validate, AddressChangeWithWriteAccepted)
{
    Trace t;
    MicroOp ld;
    ld.pc = 0x100;
    ld.cls = OpClass::Load;
    ld.addrMode = AddrMode::RegRel;
    ld.src[0] = RBX;
    ld.dst = RAX;
    ld.effAddr = 0x5000;
    t.ops.push_back(ld);
    MicroOp wr;
    wr.pc = 0x104;
    wr.cls = OpClass::Alu;
    wr.dst = RBX;
    t.ops.push_back(wr);
    ld.effAddr = 0x6000;
    t.ops.push_back(ld);
    EXPECT_TRUE(validateTrace(t).empty());
}

TEST(Validate, PointerChaseSelfWriteAccepted)
{
    // dst == src: the load's own write counts as a source write.
    Trace t;
    MicroOp ld;
    ld.pc = 0x100;
    ld.cls = OpClass::Load;
    ld.addrMode = AddrMode::RegRel;
    ld.src[0] = RBX;
    ld.dst = RBX;
    ld.effAddr = 0x5000;
    t.ops.push_back(ld);
    ld.effAddr = 0x6000;
    t.ops.push_back(ld);
    EXPECT_TRUE(validateTrace(t).empty());
}

// ------------------------------------------------------------- generator

class GeneratorCategory : public ::testing::TestWithParam<size_t>
{
};

TEST_P(GeneratorCategory, TraceIsValidAndSized)
{
    auto specs = smokeSuite(20'000);
    Trace t = generateTrace(specs[GetParam()]);
    EXPECT_GE(t.size(), 20'000u);
    EXPECT_LT(t.size(), 25'000u);
    EXPECT_TRUE(validateTrace(t).empty()) << t.name;
    EXPECT_GT(t.countClass(OpClass::Load), t.size() / 10);
}

TEST_P(GeneratorCategory, Deterministic)
{
    auto specs = smokeSuite(5'000);
    Trace a = generateTrace(specs[GetParam()]);
    Trace b = generateTrace(specs[GetParam()]);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.ops[i].pc, b.ops[i].pc);
        EXPECT_EQ(a.ops[i].effAddr, b.ops[i].effAddr);
        EXPECT_EQ(a.ops[i].value, b.ops[i].value);
    }
}

TEST_P(GeneratorCategory, HasGlobalStableLoads)
{
    auto specs = smokeSuite(30'000);
    Trace t = generateTrace(specs[GetParam()]);
    LoadInspectorResult r = inspectLoads(t);
    EXPECT_GT(r.globalStableFrac(), 0.05) << t.name;
    EXPECT_LT(r.globalStableFrac(), 0.90) << t.name;
}

INSTANTIATE_TEST_SUITE_P(AllCategories, GeneratorCategory,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Suite, Has90TracesWithPaperCounts)
{
    auto suite = paperSuite(1'000);
    ASSERT_EQ(suite.size(), 90u);
    std::unordered_map<std::string, int> counts;
    for (const auto& s : suite)
        ++counts[s.category];
    EXPECT_EQ(counts["Client"], 22);
    EXPECT_EQ(counts["Enterprise"], 14);
    EXPECT_EQ(counts["FSPEC17"], 29);
    EXPECT_EQ(counts["ISPEC17"], 11);
    EXPECT_EQ(counts["Server"], 14);
}

TEST(Suite, NamesUnique)
{
    auto suite = paperSuite(1'000);
    std::unordered_set<std::string> names;
    for (const auto& s : suite)
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
}

TEST(Suite, SmtPairsCoverHalf)
{
    auto pairs = smtPairs(90);
    EXPECT_EQ(pairs.size(), 45u);
    std::unordered_set<size_t> used;
    for (auto [a, b] : pairs) {
        EXPECT_TRUE(used.insert(a).second);
        EXPECT_TRUE(used.insert(b).second);
        EXPECT_LT(a, 90u);
        EXPECT_LT(b, 90u);
    }
}

TEST(Suite, ApxModeGeneratesFewerLoads)
{
    auto specs = smokeSuite(30'000);
    WorkloadSpec s = specs[0];
    Trace base = generateTrace(s);
    s.numArchRegs = 32;
    Trace apx = generateTrace(s);
    double lb = static_cast<double>(base.countClass(OpClass::Load)) /
                static_cast<double>(base.size());
    double la = static_cast<double>(apx.countClass(OpClass::Load)) /
                static_cast<double>(apx.size());
    EXPECT_LT(la, lb); // appendix B: APX reduces dynamic loads
}

TEST(Suite, SnoopTracesHaveSnoops)
{
    auto suite = paperSuite(20'000);
    size_t withSnoops = 0;
    for (const auto& s : suite) {
        if (s.snoopPerKilOp > 0) {
            Trace t = generateTrace(s);
            EXPECT_FALSE(t.snoops.empty()) << s.name;
            ++withSnoops;
            if (withSnoops >= 2)
                break;
        }
    }
    EXPECT_GE(withSnoops, 1u);
}

} // namespace
} // namespace constable
