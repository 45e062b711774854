/**
 * @file
 * Pluggable load-elimination / value-prediction mechanisms. Each technique
 * the paper evaluates (Constable, EVES, MRN, RFP, ELAR, the ideal oracles)
 * is a small class implementing the pipeline hook points it cares about:
 *
 *   attach        core construction (e.g. L1-eviction callbacks)
 *   renameLoad    a load reaches rename (eliminate / predict / mark)
 *   loadWriteback a non-eliminated load completed (train / arm)
 *   onValueMispredict / squashOp / retireLoad / retireBranch
 *
 * MechanismSet owns one instance of every mechanism and a variant-based
 * dispatch list of the *active* ones in the paper's canonical priority
 * order (ideal > Constable > EVES > MRN > RFP > ELAR, matching the old
 * hard-coded rename gating). Dispatch is virtual-free: each hook loops
 * over a SmallVec of std::variant pointers and `if constexpr` skips
 * mechanisms that do not implement the hook. Adding a mechanism means
 * writing a class here and listing it in MechRef -- the core's stage code
 * (cpu/rename.cc etc.) does not change.
 *
 * Inactive mechanism objects still exist (they are a few tables each, as
 * the monolithic core always constructed them) so exported statistics keep
 * the exact same key set and zero values across configurations -- the
 * golden-snapshot fingerprints depend on that.
 */

#ifndef CONSTABLE_CPU_MECHANISM_HH
#define CONSTABLE_CPU_MECHANISM_HH

#include <limits>
#include <variant>

#include "common/small_vec.hh"
#include "core/constable.hh"
#include "cpu/config.hh"
#include "vp/eves.hh"
#include "vp/ideal.hh"
#include "vp/mrn.hh"
#include "vp/rfp.hh"

namespace constable {

struct CoreState;
struct InFlight;
struct ThreadCtx;

/** Fig 7 oracle treatments of offline-identified global-stable loads. */
class IdealOracleMech
{
  public:
    explicit IdealOracleMech(IdealSpec spec) : spec_(std::move(spec)) {}

    void renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled);

  private:
    IdealSpec spec_;
};

/** Constable (the paper's mechanism): SLD/RMT/AMT/xPRF behind the engine
 *  facade, plus the rename/writeback/store/snoop touch points of Fig 8. */
class ConstableMech
{
  public:
    explicit ConstableMech(const ConstableConfig& cfg) : engine(cfg) {}

    void attach(CoreState& cs);
    void renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled);
    void loadWriteback(CoreState& cs, ThreadCtx& t, InFlight& e);
    void warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc);
    void squashOp(InFlight& e);

    ConstableEngine engine;
};

/** EVES load value prediction (trains at commit, CVP-style). */
class EvesMech
{
  public:
    EvesMech() = default;

    void renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled);
    void warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc);
    void squashOp(InFlight& e);
    void retireLoad(InFlight& e);
    void retireBranch(bool taken) { eves.pushHistory(taken); }

    EvesPredictor eves;
};

/** Memory Renaming: forward from the predicted in-flight store. */
class MrnMech
{
  public:
    MrnMech() = default;

    void renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled);
    void loadWriteback(CoreState& cs, ThreadCtx& t, InFlight& e);
    void warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc);
    void onValueMispredict(InFlight& e);

    MrnTable mrn;
};

/** Register File Prefetching: early access via a predicted address. */
class RfpMech
{
  public:
    explicit RfpMech(unsigned latency) : latency_(latency) {}

    void renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled);
    void warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc);
    void onValueMispredict(InFlight& e);
    void squashOp(InFlight& e);
    void retireLoad(InFlight& e);

    RfpPredictor rfp;

  private:
    unsigned latency_;
};

/** ELAR: stack loads have their address resolved before execute. */
class ElarMech
{
  public:
    void renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled);
};

/** One entry of the active-mechanism dispatch list. */
using MechRef = std::variant<IdealOracleMech*, ConstableMech*, EvesMech*,
                             MrnMech*, RfpMech*, ElarMech*>;

/**
 * The full mechanism bundle of one core, built from a MechanismConfig.
 * Stage code calls the hook points below; each fans out over the active
 * mechanisms (see file header). Constable-only pipeline interactions (SLD
 * port pressure, AMT store/snoop probes, xPRF release) have dedicated
 * pass-throughs so the hot paths stay branch-cheap.
 */
class MechanismSet
{
  public:
    explicit MechanismSet(const MechanismConfig& mc);

    MechanismSet(const MechanismSet&) = delete;
    MechanismSet& operator=(const MechanismSet&) = delete;

    /** Core-construction hooks (e.g. Constable-AMT-I L1 eviction). */
    void attach(CoreState& cs);

    // ----------------------------------------------------------- rename
    /** SLD read-port constraint: true when one more load lookup this
     *  rename group would exceed the ports (§6.7.1). */
    bool
    renameLoadGateStall(unsigned loads_this_cycle) const
    {
        return constableActive_ &&
               loads_this_cycle >=
                   constable_.engine.config().sld.readPorts;
    }

    /** A load reached rename: let each active mechanism eliminate,
     *  predict, or mark it (flags land on the InFlight entry). */
    void
    renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot)
    {
        bool handled = false;
        dispatch([&](auto* m) {
            if constexpr (requires { m->renameLoad(cs, t, e, slot,
                                                   handled); })
                m->renameLoad(cs, t, e, slot, handled);
        });
    }

    /** A renamed instruction writes @p dst: drain the RMT entry and reset
     *  listed loads in the SLD. @return SLD updates performed (write-port
     *  pressure modeling). */
    unsigned
    renameDstWrite(uint8_t dst)
    {
        return constableActive_ ? constable_.engine.renameDstWrite(dst) : 0;
    }

    /** SLD write ports; unlimited when Constable is off so the rename
     *  group never stalls on it. */
    unsigned
    sldWritePortLimit() const
    {
        return constableActive_
                   ? constable_.engine.config().sld.writePorts
                   : std::numeric_limits<unsigned>::max();
    }

    /** True when the SLD updates-per-cycle histogram is being modeled. */
    bool tracksSldPressure() const { return constableActive_; }

    /** True when wrong-path renames mutate RMT/SLD state (those cycles
     *  cannot be fast-forwarded in bulk). */
    bool
    wrongPathMutatesRename() const
    {
        return constableActive_ && constableWrongPath_;
    }

    /** Eliminated load retired, squashed, or superseded: free its xPRF
     *  register. Reachable only when Constable armed the elimination. */
    void releaseEliminated() { constable_.engine.releaseEliminated(); }

    // ----------------------------------------------------- memory events
    /** Store address generated (Fig 8 step 9): probe the AMT. */
    void
    onStoreAddr(Addr addr)
    {
        if (constableActive_)
            constable_.engine.storeOrSnoopAddr(addr);
    }

    /** Coherence snoop delivered (step 10). */
    void
    onSnoop(Addr addr)
    {
        if (constableActive_) {
            constable_.engine.storeOrSnoopAddr(addr);
            ++constable_.engine.snoopResets;
        }
    }

    /** An eliminated instance violated memory ordering: back off. */
    void
    onEliminationViolation(PC pc)
    {
        if (constableActive_)
            constable_.engine.onEliminationViolation(pc);
    }

    /** Sampled warm-up skipped a trace region outright (cpu/warmup.cc):
     *  stores in the gap never probed the AMT, so armed eliminations may
     *  hold stale values. Flush the tracking tables (the paper's §6.7.3
     *  context-switch path); the warm horizon after the gap re-trains
     *  them, keeping the golden invariant by construction. */
    void
    onWarmupGap()
    {
        if (constableActive_)
            constable_.engine.contextSwitch();
    }

    // ------------------------------------------------ writeback / recovery
    /** A non-eliminated load delivered its value (writeback stage). */
    void
    loadWriteback(CoreState& cs, ThreadCtx& t, InFlight& e)
    {
        dispatch([&](auto* m) {
            if constexpr (requires { m->loadWriteback(cs, t, e); })
                m->loadWriteback(cs, t, e);
        });
    }

    /** Functional warm-up of a load (sampled simulation, cpu/warmup.cc):
     *  each active mechanism replays the training its rename + writeback /
     *  retire hooks would perform for an untimed, in-order instance of
     *  @p op. @p fwd_store_pc is the static store that would forward to
     *  this load (0 = value came from memory), mirroring the detailed
     *  pipeline's store-buffer forwarding outcome for MRN training. */
    void
    warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc)
    {
        dispatch([&](auto* m) {
            if constexpr (requires { m->warmupLoad(cs, op, fwd_store_pc); })
                m->warmupLoad(cs, op, fwd_store_pc);
        });
    }

    /** A speculative value was verified wrong (pre-flush training). */
    void
    onValueMispredict(InFlight& e)
    {
        dispatch([&](auto* m) {
            if constexpr (requires { m->onValueMispredict(e); })
                m->onValueMispredict(e);
        });
    }

    /** An in-flight op is being squashed (release mechanism resources). */
    void
    squashOp(InFlight& e)
    {
        dispatch([&](auto* m) {
            if constexpr (requires { m->squashOp(e); })
                m->squashOp(e);
        });
    }

    // ------------------------------------------------------------ retire
    /** A non-eliminated load retired: commit-time training (in order,
     *  exactly once). */
    void
    retireLoad(InFlight& e)
    {
        dispatch([&](auto* m) {
            if constexpr (requires { m->retireLoad(e); })
                m->retireLoad(e);
        });
    }

    /** A branch retired (global-history update). */
    void
    retireBranch(bool taken)
    {
        dispatch([&](auto* m) {
            if constexpr (requires { m->retireBranch(taken); })
                m->retireBranch(taken);
        });
    }

    /** Publish mechanism statistics. Emits the same key set for every
     *  configuration (inactive mechanisms report zeros). */
    void exportStats(StatSet& s) const;

  private:
    /** Invoke cb on every active mechanism, in canonical priority order.
     *  The callback guards itself with `if constexpr (requires ...)` so
     *  mechanisms that do not implement a hook compile away. */
    template <typename Cb>
    void
    dispatch(Cb&& cb)
    {
        for (size_t i = 0; i < active_.size(); ++i)
            std::visit(cb, active_[i]);
    }

    // Every mechanism always exists (stat-key stability; cf. file header);
    // only the ones the config enables join the dispatch list.
    IdealOracleMech ideal_;
    ConstableMech constable_;
    EvesMech eves_;
    MrnMech mrn_;
    RfpMech rfp_;
    ElarMech elar_;

    SmallVec<MechRef, 6> active_;
    bool constableActive_ = false;
    bool constableWrongPath_ = false;
};

} // namespace constable

#endif
