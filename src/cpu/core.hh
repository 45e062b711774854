/**
 * @file
 * Trace-driven, cycle-level out-of-order core modeling the nine-stage
 * pipeline of the paper's Fig 1 (fetch/decode/allocate/rename/issue/
 * execute/memory/writeback/retire collapse here into rename, allocate,
 * issue/execute, complete and retire events over explicit ROB/RS/LB/SB and
 * issue-port resources). Load-optimization techniques (MRN, EVES, ELAR,
 * RFP, the ideal oracles, and Constable itself) plug in through the
 * mechanism hook points of cpu/mechanism.hh; the stage logic itself lives
 * in one translation unit per pipeline region:
 *
 *   cpu/rename.cc    frontend: thread pick, wrong-path injection, rename
 *   cpu/schedule.cc  issue ports, the event wheel, idle fast-forward, run()
 *   cpu/mem_pipe.cc  AGU, disambiguation, writeback, squash recovery
 *   cpu/retire.cc    in-order retire, snoop delivery, the golden check
 *   cpu/core.cc      construction and final stat export
 *   cpu/warmup.cc    functional fast-forward + measured sampled windows
 *
 * all over the shared CoreState of cpu/core_state.hh.
 *
 * The trace is both the instruction stream and the functional reference:
 * every retired load passes the paper's golden check (§8.5) comparing the
 * microarchitecturally-delivered (address, value) against the trace.
 */

#ifndef CONSTABLE_CPU_CORE_HH
#define CONSTABLE_CPU_CORE_HH

#include <string>
#include <unordered_set>
#include <vector>

#include "common/run_result.hh"
#include "cpu/core_state.hh"

namespace constable {

class OooCore : private CoreState
{
  public:
    /**
     * @param traces one trace (noSMT) or two (SMT2).
     * @param global_stable optional offline-identified global-stable PCs
     *        used only for statistics classification (Fig 6b, Fig 17).
     */
    OooCore(const CoreConfig& core_cfg, const MechanismConfig& mech_cfg,
            std::vector<const Trace*> traces,
            const std::unordered_set<PC>* global_stable = nullptr);

    /** Run to completion of all trace contexts. */
    RunResult run();

    // ---- sampled simulation (cpu/warmup.cc; single-trace cores only) ----

    /** Cycles and retired-op count of one measured sampled window. */
    struct WindowTiming
    {
        Cycle cycles = 0;
        uint64_t ops = 0;
    };

    /** Next trace index the sampled drivers would rename (thread 0). */
    size_t sampleCursor() const { return threads[0].traceIdx; }

    /**
     * Functional fast-forward of thread 0 to trace index @p target_idx
     * without OoO scheduling. Ops at indices >= @p touch_from_idx update
     * caches/TLB, the branch predictor, the memory-dependence heuristic and
     * every active mechanism's tables (MechanismSet::warmupLoad); earlier
     * ops run a branch-predictor-only fast skip (plus snoop delivery and a
     * mechanism-table flush), so a distant window costs the cheap branch
     * replay plus the detailed-warm horizon before it.
     */
    void warmupAdvance(size_t target_idx, size_t touch_from_idx);

    /** One measured region of a chained detailed run ([begin, end) trace
     *  indices). Segments must be sorted and non-overlapping. */
    struct SampleSegment
    {
        size_t begin = 0;
        size_t end = 0;
    };

    /**
     * Run one continuous detailed stretch covering several measured
     * segments: rename from the current cursor (the fill prefix that
     * re-fills the pipeline), record the cycle at which each segment
     * boundary retires, and return per-segment cycle/op counts. Ops
     * between segments stay detailed but unmeasured, which is what keeps
     * near-adjacent windows unbiased — a squash between them would make
     * the later window measure a pipeline-refill ramp. After the last
     * segment everything still in flight is squashed so the cursor rests
     * at the first unretired op. @p rename_limit (>= the last segment
     * end) keeps the frontend fed through the tail of the measurement
     * without running ahead forever.
     */
    std::vector<WindowTiming>
    runSampleWindows(const std::vector<SampleSegment>& segs,
                     size_t rename_limit);

    /** Assemble a RunResult from the current (partially simulated) state:
     *  the sampled driver (sim/sample.cc) overwrites the cycle/instruction
     *  totals with its extrapolation. */
    RunResult sampledResult();

    /** Event-wheel span (see core_state.hh). */
    static constexpr unsigned kWheelSize = kEventWheelSize;

  private:
    // cpu/rename.cc
    void renameStage();
    bool renameOne(ThreadCtx& t, unsigned& loads_this_cycle,
                   unsigned& sld_updates_this_cycle);
    void injectWrongPath(ThreadCtx& t);
    unsigned pickThread() const;

    // cpu/schedule.cc
    void issueStage();
    void drainEvents();
    void handleEvent(int slot, uint64_t gen, EventKind kind);
    void tryFastForward();

    // cpu/mem_pipe.cc
    void onLoadAgu(int slot);
    void onStaDone(int slot);
    void completeOp(int slot);
    void wakeConsumers(InFlight& e);
    void checkBlockedLoads();
    void squashFrom(ThreadCtx& t, size_t rob_pos, Cycle restart_delay);
    void storeIndexInsert(ThreadCtx& t, int slot);
    void storeIndexErase(ThreadCtx& t, int slot);

    // cpu/retire.cc
    void retireStage();
    void deliverSnoops(ThreadCtx& t, size_t upto_trace_idx);
    void goldenCheck(const InFlight& e);

    // cpu/core.cc
    void exportFinalStats(RunResult& r);
};

} // namespace constable

#endif
