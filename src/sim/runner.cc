#include "sim/runner.hh"

#include "common/logging.hh"

namespace constable {

RunResult
runTrace(const Trace& trace, const SystemConfig& cfg,
         const std::unordered_set<PC>* gs)
{
    CoreConfig core = cfg.core;
    core.smt2 = false;
    OooCore sim(core, cfg.mech, { &trace }, gs);
    RunResult r = sim.run();
    if (r.goldenCheckFailed)
        panic("golden check failed on " + trace.name + ": " +
              r.goldenCheckMessage);
    return r;
}

Trace
relocateTrace(const Trace& t, PC pc_off, Addr addr_off)
{
    Trace out = t;
    for (MicroOp& op : out.ops) {
        op.pc += pc_off;
        if (op.isMem())
            op.effAddr += addr_off;
        if (op.isBranch())
            op.target += pc_off;
    }
    for (SnoopEvent& s : out.snoops)
        s.addr += addr_off;
    return out;
}

RunResult
runSmtPair(const Trace& t0, const Trace& t1, SystemConfig cfg,
           const std::unordered_set<PC>* gs)
{
    cfg.core.smt2 = true;
    // Separate address spaces: thread 1 lives in its own PC/data region.
    Trace t1r = relocateTrace(t1, 0x4000'0000ull, 0x40'0000'0000ull);
    OooCore sim(cfg.core, cfg.mech, { &t0, &t1r }, gs);
    RunResult r = sim.run();
    if (r.goldenCheckFailed)
        panic("golden check failed on SMT pair " + t0.name + "+" + t1.name +
              ": " + r.goldenCheckMessage);
    return r;
}

double
speedup(const RunResult& test, const RunResult& base)
{
    return test.cycles == 0
        ? 0.0
        : static_cast<double>(base.cycles) /
              static_cast<double>(test.cycles);
}

} // namespace constable
