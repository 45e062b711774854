/**
 * @file
 * The narrow shared state of the out-of-order core: in-flight op slots,
 * per-thread contexts, ready queues, the event wheel, and every statistic
 * counter. The pipeline-stage translation units (cpu/rename.cc,
 * cpu/schedule.cc, cpu/mem_pipe.cc, cpu/retire.cc) and the pluggable
 * load-elimination mechanisms (cpu/mechanism.hh) all operate on this one
 * struct; none of them sees the others' code.
 */

#ifndef CONSTABLE_CPU_CORE_STATE_HH
#define CONSTABLE_CPU_CORE_STATE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.hh"
#include "common/small_vec.hh"
#include "common/stats.hh"
#include "cpu/config.hh"
#include "cpu/mechanism.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "predictor/branch.hh"
#include "predictor/storeset.hh"
#include "trace/trace.hh"

namespace constable {

/** Event-wheel span: the farthest ahead an event can be scheduled (longer
 *  delays clamp to kEventWheelSize - 1). */
inline constexpr unsigned kEventWheelSize = 2048;

/** Scheduling state of an in-flight op. */
enum class OpState : uint8_t {
    WaitDeps, Ready, Blocked, Issued, Done,
};

enum class EventKind : uint8_t {
    ExecDone,    ///< non-memory op finished / load data returned
    AguDone,     ///< load address generated -> memory stage
    StaDone,     ///< store address resolved -> disambiguation
    ValueAvail,  ///< speculative value delivered to dependents (RFP)
};

/** Branches share the ALU ports but issue with priority (fast branch
 *  resolution keeps mispredict windows short). */
enum class PortType : uint8_t { Alu = 0, Load = 1, Sta = 2, Branch = 3 };

/** Generation-checked reference to an in-flight slot. */
struct SlotRef
{
    int slot = -1;
    uint64_t gen = 0;
};

/**
 * Trivially-copyable part of an in-flight op: slot recycling resets it
 * with one aggregate assignment (memset-class code) instead of running
 * member-wise constructors, and keeps the consumer list's storage alive
 * across generations.
 */
struct InFlightState
{
    MicroOp op;
    uint64_t gen = 0;
    size_t traceIdx = 0;
    SeqNum seq = 0;       ///< per-thread program-order sequence
    ThreadId tid = 0;
    OpState state = OpState::WaitDeps;
    bool valid = false;

    bool inRs = false;
    bool doneAtRename = false;
    bool eliminated = false;        ///< Constable elimination
    bool idealEliminated = false;
    bool likelyStableMarked = false;
    bool vpApplied = false;         ///< dependents woken speculatively
    bool vpWrong = false;
    bool valueAvailable = false;    ///< consumers need not wait
    bool noDataFetch = false;       ///< ideal LVP-no-fetch (AGU only)
    bool elarReady = false;         ///< address resolved at decode
    bool mrnForwarded = false;
    bool evesPredicted = false;
    bool evesTracked = false;       ///< counted in E-Stride inflight
    bool xprfHeld = false;          ///< owns an xPRF register
    bool rfpPredicted = false;
    bool isGsLoad = false;          ///< PC in the global-stable set
                                    ///< (cached at rename; the set is
                                    ///< immutable during a run)
    PC fwdFromStorePc = 0;          ///< actual forwarding store (MRN train)

    Addr lbAddr = 0;
    bool lbAddrValid = false;
    uint64_t elimValue = 0;         ///< SLD-provided value (golden check)
    bool storeAddrResolved = false;
    bool loadValueDelivered = false; ///< disambiguation "completed" bit

    unsigned pendingSrcs = 0;
    uint8_t dstReg = kNoReg;
    SlotRef prevWriter;             ///< rename-map checkpoint for squash
    SlotRef blockingStore;          ///< MDP wait target
    Cycle readyAt = 0;
};
static_assert(std::is_trivially_copyable_v<InFlightState>,
              "slot recycling relies on aggregate reset");

struct InFlight : InFlightState
{
    /** Dependent ops woken at completion; inline for the common fan-out,
     *  spill storage retained across slot reuse. */
    SmallVec<SlotRef, 4> consumers;
};

struct ThreadCtx
{
    const Trace* trace = nullptr;
    size_t traceIdx = 0;
    size_t snoopIdx = 0;
    SeqNum nextSeq = 0;
    std::deque<int> rob;            ///< slot ids in program order
    std::deque<int> storeList;      ///< in-flight stores, program order
    std::deque<int> loadList;       ///< in-flight loads, program order
                                    ///< (disambiguation scans loads
                                    ///< only, not the whole ROB)
    /** In-flight stores whose address is still unresolved, in program
     *  order: the load-AGU memory-dependence check walks only these (the
     *  handful of recently issued stores) instead of the whole SB. */
    std::vector<int> unresolvedStores;
    /**
     * Resolved in-flight stores indexed by the 8-byte-aligned chunks their
     * byte range covers (a store of size <= 8 spans at most two chunks).
     * Two byte ranges that overlap share a byte and therefore a chunk, so
     * probing the load's chunks finds every forwarding candidate without
     * scanning the store buffer. Maintained incrementally: insert at STA,
     * erase at store retire and on squash.
     */
    std::unordered_map<Addr, SmallVec<int, 2>> storeAddrIndex;
    std::array<SlotRef, kMaxArchRegs> renameMap;
    unsigned lbUsed = 0;
    unsigned sbUsed = 0;
    Cycle frontendBlockedUntil = 0;
    SlotRef pendingBranch;          ///< unresolved mispredicted branch
    std::vector<MicroOp> recentOps; ///< wrong-path template ring
    size_t recentIdx = 0;
    std::unordered_map<PC, SlotRef> lastStoreByPc; ///< MRN producer lookup
    uint64_t retired = 0;
    Cycle finishCycle = 0;
    bool done = false;
    /** Rename fence for sampled windows (cpu/warmup.cc): ops at indices
     *  >= renameLimit never enter the pipeline. SIZE_MAX (the default)
     *  reproduces full-fidelity behaviour exactly. */
    size_t renameLimit = SIZE_MAX;

    /** First trace index rename must not cross (trace end or the sampled
     *  window fence, whichever is lower). */
    size_t
    opsEnd() const
    {
        return std::min(renameLimit, trace->ops.size());
    }
};

/**
 * Per-port ready queue: a binary min-heap over allocation generation
 * (gens are unique and monotonically increasing, so min-gen order is
 * exactly the (tid, seq) age order the old red-black tree gave).
 * Squash does not search the heap; it just drops the live count and
 * leaves a stale entry behind that popReady() discards when it surfaces
 * (lazy invalidation). push/pop are allocation-free once the backing
 * vector has warmed.
 */
struct ReadyEntry
{
    uint64_t gen;
    int slot;
};
struct ReadyQueue
{
    std::vector<ReadyEntry> heap;
    size_t live = 0;        ///< non-stale entries (idle-skip gate)
};

struct Event
{
    int slot;
    uint64_t gen;
    EventKind kind;
};

/**
 * The event wheel's buckets: one slab per future cycle. The slabs are
 * recycled per thread across cores, like cache tag arrays
 * (mem/cache.cc): release clears every bucket but keeps its capacity, so
 * a recycled wheel is exactly as empty as a fresh one, and a new core's
 * first lap allocates nothing.
 */
class EventWheel
{
  public:
    EventWheel();
    ~EventWheel();
    EventWheel(const EventWheel&) = delete;
    EventWheel& operator=(const EventWheel&) = delete;

    std::vector<Event>& operator[](size_t idx) { return (*buckets)[idx]; }

  private:
    using Buckets = std::array<std::vector<Event>, kEventWheelSize>;
    /** This thread's one spare wheel: a worker runs one core at a time. */
    static std::unique_ptr<Buckets>& spare();

    std::unique_ptr<Buckets> buckets;
};

/** Shared core state; see file header. Construction and the run loop live
 *  in OooCore (cpu/core.hh), which derives from this. */
struct CoreState
{
    CoreState(const CoreConfig& core_cfg, const MechanismConfig& mech_cfg)
        : cfg(core_cfg), memory(core_cfg.mem), mechs(mech_cfg)
    {}

    CoreConfig cfg;
    std::vector<ThreadCtx> threads;
    const std::unordered_set<PC>* globalStable = nullptr;

    MemHierarchy memory;
    Directory directory;
    TageLite branchPred;
    StoreSets storeSets;
    /** The active load-elimination mechanisms (Constable, EVES, ...). */
    MechanismSet mechs;

    std::vector<InFlight> slots;
    std::vector<int> freeSlots;
    uint64_t genCounter = 1;

    unsigned rsUsed = 0;
    Cycle now = 0;

    ReadyQueue readyQ[4];
    /** Ready (state Ready, not yet issued) loads whose PC is NOT in the
     *  global-stable set: makes the Fig 6b "is a non-GS load waiting?"
     *  check O(1) instead of a queue scan per GS-load-issue cycle. */
    uint64_t readyNonGsLoads = 0;
    std::vector<SlotRef> blockedLoads;
    /** Load-issue token bucket: loadPorts tokens arrive per cycle, each
     *  issued load costs loadPortOccupancy tokens (sustained bandwidth
     *  loadPorts / occupancy, age-fair across cycles). */
    unsigned loadTokens = 0;

    /** Event wheel: one recycled slab per future cycle (clear() keeps
     *  capacity, so steady state schedules without allocating), plus an
     *  occupancy bitmap so the idle-cycle fast-forward finds the next
     *  populated bucket with a handful of word scans. */
    EventWheel wheel;
    std::array<uint64_t, kEventWheelSize / 64> wheelOccupied {};
    uint64_t pendingEvents = 0;

    // ---------------------------------------------------------- statistics
    Histogram sldUpdateHist { { 1, 2, 3, 4 } };
    uint64_t sldUpdateCycles = 0;
    uint64_t sldUpdateTotal = 0;
    uint64_t loadUtilCycles = 0;
    uint64_t gsOccupiedWaitCycles = 0;
    uint64_t gsOccupiedNoWaitCycles = 0;
    uint64_t robAllocs = 0;
    uint64_t rsAllocs = 0;
    uint64_t renameStallsSldRead = 0;
    uint64_t renameStallsSldWrite = 0;
    uint64_t elimOrderingViolations = 0;
    uint64_t orderingViolations = 0;
    uint64_t vpFlushes = 0;
    uint64_t branchMispredicts = 0;
    uint64_t loadsRetired = 0;
    uint64_t loadsEliminatedRetired = 0;
    uint64_t loadsVpRetired = 0;
    uint64_t loadsElimRetiredByMode[4] = { 0, 0, 0, 0 };
    uint64_t gsElimRetired = 0;
    uint64_t nonGsElimRetired = 0;
    uint64_t gsLoadsRetired = 0;
    uint64_t aluExecs = 0;
    uint64_t aguExecs = 0;
    uint64_t issueEvents = 0;
    uint64_t renamedOps = 0;
    // Rename-stall attribution (first blocking reason per cycle).
    uint64_t stallFrontend = 0;
    uint64_t stallPendingBranch = 0;
    uint64_t fbuBranch = 0;
    uint64_t fbuSquash = 0;
    uint64_t stallRobFull = 0;
    uint64_t stallRsFull = 0;
    uint64_t stallLbFull = 0;
    uint64_t stallSbFull = 0;
    uint64_t renameZeroCycles = 0;
    /** Cycles skipped wholesale by tryFastForward(). Observability-only:
     *  flushed to the obs registry at the end of run(), never exported
     *  into a RunResult or StatSet (the stall counters above already
     *  account these cycles for the simulated stats). */
    uint64_t idleFastForwardedCycles = 0;
    std::unordered_map<PC, uint64_t> vpWrongByPc;
    bool goldenFailed = false;
    std::string goldenMsg;

    // ------------------------------------------------------------ helpers

    InFlight& at(int slot) { return slots[slot]; }
    const InFlight& at(int slot) const { return slots[slot]; }

    bool
    refValid(const SlotRef& r) const
    {
        return r.slot >= 0 && slots[r.slot].valid && slots[r.slot].gen ==
                                                         r.gen;
    }

    int
    allocSlot()
    {
        if (freeSlots.empty())
            return -1;
        int s = freeSlots.back();
        freeSlots.pop_back();
        InFlight& e = slots[s];
        // Aggregate reset of the trivially-copyable part; the consumer list
        // keeps its (already empty, see wakeConsumers/freeSlot) spill
        // storage.
        static_cast<InFlightState&>(e) = InFlightState{};
        e.consumers.clear();
        e.gen = genCounter++;
        e.valid = true;
        return s;
    }

    void
    freeSlot(int slot)
    {
        slots[slot].valid = false;
        freeSlots.push_back(slot);
    }

    void
    schedule(int slot, EventKind kind, unsigned delay)
    {
        CONSTABLE_ASSERT(slots[slot].valid,
                         "scheduling an event for a freed slot");
        if (delay == 0)
            delay = 1;
        if (delay >= kEventWheelSize)
            delay = kEventWheelSize - 1;
        unsigned idx = (now + delay) % kEventWheelSize;
        wheel[idx].push_back(Event{ slot, slots[slot].gen, kind });
        wheelOccupied[idx / 64] |= 1ull << (idx % 64);
        ++pendingEvents;
    }

    /** Smallest delay d >= 1 with a populated wheel bucket; 0 when the
     *  wheel is empty. The current bucket is always drained, so a set bit
     *  is never at delay 0. */
    unsigned
    nextEventDelay() const
    {
        if (pendingEvents == 0)
            return 0;
        constexpr unsigned kWords = kEventWheelSize / 64;
        unsigned cur = static_cast<unsigned>(now % kEventWheelSize);
        unsigned s0 = (cur + 1) % kEventWheelSize;
        unsigned found = kEventWheelSize;
        uint64_t head = wheelOccupied[s0 / 64] & (~0ull << (s0 % 64));
        if (head != 0) {
            found = (s0 / 64) * 64 +
                    static_cast<unsigned>(std::countr_zero(head));
        } else {
            for (unsigned i = 1; i <= kWords; ++i) {
                unsigned w = (s0 / 64 + i) % kWords;
                uint64_t bits = wheelOccupied[w];
                if (w == s0 / 64) // wrapped: only bits below the start count
                    bits &= (s0 % 64) ? ((1ull << (s0 % 64)) - 1) : 0;
                if (bits != 0) {
                    found = w * 64 +
                            static_cast<unsigned>(std::countr_zero(bits));
                    break;
                }
            }
        }
        CONSTABLE_ASSERT(found != kEventWheelSize,
                         "pendingEvents != 0 but the occupancy bitmap has "
                         "no set bit: wheel and bitmap disagree");
        return (found + kEventWheelSize - cur) % kEventWheelSize;
    }

    PortType
    portOf(const InFlight& e) const
    {
        if (e.op.isLoad())
            return PortType::Load;
        if (e.op.isStore())
            return PortType::Sta;
        if (e.op.cls == OpClass::Branch)
            return PortType::Branch;
        return PortType::Alu;
    }

    void
    addReady(int slot)
    {
        InFlight& e = at(slot);
        e.state = OpState::Ready;
        e.readyAt = now + 1;
        unsigned port = static_cast<unsigned>(portOf(e));
        ReadyQueue& q = readyQ[port];
        q.heap.push_back(ReadyEntry{ e.gen, slot });
        std::push_heap(q.heap.begin(), q.heap.end(),
                       [](const ReadyEntry& a, const ReadyEntry& b) {
                           return a.gen > b.gen;
                       });
        ++q.live;
        CONSTABLE_ASSERT(q.live <= q.heap.size(),
                         "ready-queue live count exceeds heap size: a "
                         "removeReady was missed or double-counted");
        if (port == static_cast<unsigned>(PortType::Load) && !e.isGsLoad)
            ++readyNonGsLoads;
    }

    void
    removeReady(int slot)
    {
        // Lazy invalidation: only the live count drops; the heap entry
        // stays behind and popReady() discards it by generation mismatch
        // (the slot is freed or re-allocated under a strictly larger gen).
        InFlight& e = at(slot);
        unsigned port = static_cast<unsigned>(portOf(e));
        CONSTABLE_ASSERT(readyQ[port].live > 0,
                         "removeReady on a port with no live entries");
        --readyQ[port].live;
        if (port == static_cast<unsigned>(PortType::Load) && !e.isGsLoad) {
            CONSTABLE_ASSERT(readyNonGsLoads > 0,
                             "non-GS ready-load counter underflow");
            --readyNonGsLoads;
        }
    }

    /** Pop the oldest live ready op on a port, discarding stale heap
     *  entries on the way; -1 when nothing live remains. */
    int
    popReady(unsigned port)
    {
        ReadyQueue& q = readyQ[port];
        auto older = [](const ReadyEntry& a, const ReadyEntry& b) {
            return a.gen > b.gen;
        };
        // O(heap) probe, so DCHECK: min-heap order over gen is what makes
        // pop order == age order (the determinism contract of issue).
        CONSTABLE_DCHECK(std::is_heap(q.heap.begin(), q.heap.end(), older),
                         "ready-queue heap property violated");
        while (!q.heap.empty()) {
            ReadyEntry top = q.heap.front();
            std::pop_heap(q.heap.begin(), q.heap.end(), older);
            q.heap.pop_back();
            InFlight& e = slots[top.slot];
            if (e.valid && e.gen == top.gen && e.state == OpState::Ready) {
                CONSTABLE_ASSERT(q.live > 0,
                                 "live ready entry found on a port whose "
                                 "live count is zero");
                --q.live;
                if (port == static_cast<unsigned>(PortType::Load) &&
                    !e.isGsLoad)
                    --readyNonGsLoads;
                return top.slot;
            }
        }
        CONSTABLE_ASSERT(q.live == 0,
                         "ready-queue drained but live count is nonzero: "
                         "a live entry was lost to a stale generation");
        return -1;
    }

    bool
    overlaps(Addr a1, unsigned s1, Addr a2, unsigned s2) const
    {
        return a1 < a2 + s2 && a2 < a1 + s1;
    }
};

} // namespace constable

#endif
