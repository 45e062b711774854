/**
 * @file
 * The scheduler: per-port issue with the load-token bucket, event-wheel
 * dispatch and slab recycling, the idle-cycle fast-forward, and the
 * top-level run() loop.
 */

#include "cpu/core.hh"

#include "common/logging.hh"
#include "common/obs.hh"

namespace constable {

std::unique_ptr<EventWheel::Buckets>&
EventWheel::spare()
{
    thread_local std::unique_ptr<Buckets> wheel;
    return wheel;
}

EventWheel::EventWheel() : buckets(std::move(spare()))
{
    if (!buckets)
        buckets = std::make_unique<Buckets>();
}

EventWheel::~EventWheel()
{
    // A sampled or abandoned run leaves squashed ops' events behind.
    for (std::vector<Event>& bucket : *buckets)
        bucket.clear();
    if (!spare())
        spare() = std::move(buckets);
}

void
OooCore::issueStage()
{
    unsigned capacity[4] = { cfg.aluPorts, cfg.loadPorts, cfg.staPorts,
                             cfg.aluPorts };

    // Replenish load-issue tokens (burst cap: one cycle's worth extra).
    loadTokens = std::min(loadTokens + cfg.loadPorts, 2 * cfg.loadPorts);

    // Branches first (they share ALU ports): fast branch resolution.
    static const unsigned order[4] = { 3, 0, 1, 2 };
    unsigned branchIssued = 0;
    for (unsigned oi = 0; oi < 4; ++oi) {
        unsigned ty = order[oi];
        unsigned used = 0;
        unsigned cap = capacity[ty];
        if (ty == static_cast<unsigned>(PortType::Alu))
            cap = cap > branchIssued ? cap - branchIssued : 0;
        bool isLoadPort = ty == static_cast<unsigned>(PortType::Load);
        bool gsIssued = false;
        while (used < cap) {
            if (isLoadPort && loadTokens < cfg.loadPortOccupancy)
                break;
            int s = popReady(ty);
            if (s < 0)
                break;
            InFlight& e = at(s);
            e.state = OpState::Issued;
            ++issueEvents;
            if (e.inRs) {
                e.inRs = false;
                --rsUsed;
            }
            switch (e.op.cls) {
              case OpClass::Load:
                if (!e.elarReady)
                    ++aguExecs;
                schedule(s, EventKind::AguDone, cfg.aguLat);
                loadTokens -= cfg.loadPortOccupancy;
                if (e.isGsLoad)
                    gsIssued = true;
                break;
              case OpClass::Store:
                ++aguExecs;
                schedule(s, EventKind::StaDone, cfg.aguLat);
                break;
              case OpClass::Mul:
                ++aluExecs;
                schedule(s, EventKind::ExecDone, cfg.mulLat);
                break;
              case OpClass::Div:
                ++aluExecs;
                schedule(s, EventKind::ExecDone, cfg.divLat);
                break;
              case OpClass::FpOp:
                ++aluExecs;
                schedule(s, EventKind::ExecDone, cfg.fpLat);
                break;
              default:
                ++aluExecs;
                schedule(s, EventKind::ExecDone, cfg.aluLat);
                break;
            }
            ++used;
        }
        if (ty == static_cast<unsigned>(PortType::Branch))
            branchIssued = used;
        if (ty == static_cast<unsigned>(PortType::Load)) {
            if (used > 0)
                ++loadUtilCycles;
            if (gsIssued) {
                // Fig 6b: is a non-global-stable load waiting on the same
                // ports this cycle? O(1) via the live ready-non-GS count
                // (equals what a scan of the remaining queue would find).
                if (readyNonGsLoads > 0)
                    ++gsOccupiedWaitCycles;
                else
                    ++gsOccupiedNoWaitCycles;
            }
        }
    }
}

void
OooCore::drainEvents()
{
    unsigned idx = static_cast<unsigned>(now % kWheelSize);
    std::vector<Event>& events = wheel[idx];
    if (events.empty())
        return;
    // Recycled slab: drain in place (schedule() can never target the live
    // bucket -- delays are clamped to [1, kWheelSize-1]) and clear() keeps
    // the capacity for the next lap.
    size_t n = events.size();
    CONSTABLE_ASSERT((wheelOccupied[idx / 64] >> (idx % 64)) & 1,
                     "draining a populated wheel bucket whose occupancy "
                     "bit is clear");
    CONSTABLE_ASSERT(pendingEvents >= n,
                     "wheel bucket holds more events than the global "
                     "pending count");
    pendingEvents -= n;
    wheelOccupied[idx / 64] &= ~(1ull << (idx % 64));
    for (size_t i = 0; i < n; ++i) {
        Event ev = events[i];
        handleEvent(ev.slot, ev.gen, ev.kind);
    }
    events.clear();
}

void
OooCore::handleEvent(int slot, uint64_t gen, EventKind kind)
{
    InFlight& e = at(slot);
    if (!e.valid || e.gen != gen)
        return; // squashed
    switch (kind) {
      case EventKind::AguDone:
        onLoadAgu(slot);
        break;
      case EventKind::StaDone:
        onStaDone(slot);
        break;
      case EventKind::ExecDone:
        completeOp(slot);
        break;
      case EventKind::ValueAvail:
        e.valueAvailable = true;
        wakeConsumers(e);
        break;
    }
}

/**
 * Idle-cycle fast-forward: when the next cycle provably does nothing but
 * bump per-cycle stall counters -- no event due, nothing ready to issue,
 * nothing retirable, the rename stage stalled for a frozen reason -- jump
 * `now` to just before the next cycle that can make progress (next
 * populated wheel bucket or frontend-unblock point) and account the skipped
 * cycles' counters in bulk. Every branch here mirrors what the skipped
 * renameStage()/issueStage() iterations would have done, so RunResult stays
 * bit-identical to the cycle-by-cycle loop (the golden snapshot test locks
 * this).
 */
void
OooCore::tryFastForward()
{
    for (const ReadyQueue& q : readyQ)
        if (q.live > 0)
            return; // issueStage would issue
    for (const ThreadCtx& t : threads)
        if (!t.rob.empty() && at(t.rob.front()).state == OpState::Done)
            return; // retireStage would retire

    unsigned d = nextEventDelay();
    if (d == 1)
        return; // events due next cycle
    uint64_t target = d ? now + d : UINT64_MAX;
    // A frontend-blocked thread wakes exactly at frontendBlockedUntil:
    // rename-ability and pickThread() weights are frozen strictly before it.
    for (const ThreadCtx& t : threads)
        if (!t.done && t.frontendBlockedUntil > now)
            target = std::min<uint64_t>(target, t.frontendBlockedUntil);
    target = std::min<uint64_t>(target, cfg.maxCycles);
    if (target <= now + 1)
        return;

    // Replicate the one rename attempt every skipped cycle would make (all
    // inputs are frozen across the window, so one evaluation stands for k).
    const Cycle c = now + 1;
    unsigned tid = 0;
    if (threads.size() > 1) {
        auto weight = [&](const ThreadCtx& t) -> size_t {
            if (t.done)
                return SIZE_MAX;
            if (c < t.frontendBlockedUntil || refValid(t.pendingBranch))
                return SIZE_MAX - 1;
            return t.rob.size();
        };
        tid = weight(threads[0]) <= weight(threads[1]) ? 0 : 1;
    }
    ThreadCtx& t = threads[tid];
    bool pb = refValid(t.pendingBranch);
    bool blocked = t.done || c < t.frontendBlockedUntil || pb;
    uint64_t dFrontend = 0, dPendingBranch = 0, dRobFull = 0, dRsFull = 0;
    uint64_t dLbFull = 0, dSbFull = 0, dSldRead = 0, dZero = 0;
    if (blocked) {
        // Wrong-path injection mutates the RMT/SLD every blocked cycle;
        // those cycles cannot be batched.
        if (pb && mechs.wrongPathMutatesRename() && !t.recentOps.empty())
            return;
        if (!t.done) {
            dFrontend = 1;
            dPendingBranch = pb ? 1 : 0;
        }
    } else if (t.traceIdx >= t.opsEnd()) {
        dZero = 1; // trace drained; renameOne returns without a stall stat
    } else {
        const MicroOp& op = t.trace->ops[t.traceIdx];
        bool classRenameDone =
            op.cls == OpClass::Nop || op.cls == OpClass::Jump ||
            op.cls == OpClass::Move || op.cls == OpClass::ZeroIdiom ||
            op.cls == OpClass::StackAdj;
        if (t.rob.size() >= cfg.robPerThread()) {
            dRobFull = dZero = 1;
        } else if (!classRenameDone && rsUsed >= cfg.rsTotal()) {
            dRsFull = dZero = 1;
        } else if (op.isLoad() && t.lbUsed >= cfg.lbPerThread()) {
            dLbFull = dZero = 1;
        } else if (op.isStore() && t.sbUsed >= cfg.sbPerThread()) {
            dSbFull = dZero = 1;
        } else if (op.isLoad() && mechs.renameLoadGateStall(0)) {
            dSldRead = dZero = 1;
        } else if (freeSlots.empty()) {
            dZero = 1;
        } else {
            return; // the next cycle would rename: real progress
        }
    }

    uint64_t k = target - 1 - now;
    idleFastForwardedCycles += k;
    stallFrontend += dFrontend * k;
    stallPendingBranch += dPendingBranch * k;
    stallRobFull += dRobFull * k;
    stallRsFull += dRsFull * k;
    stallLbFull += dLbFull * k;
    stallSbFull += dSbFull * k;
    renameStallsSldRead += dSldRead * k;
    renameZeroCycles += dZero * k;
    if (mechs.tracksSldPressure()) {
        sldUpdateHist.add(0, k);
        sldUpdateCycles += k;
    }
    // issueStage token replenish saturates monotonically: k steps == one.
    loadTokens = static_cast<unsigned>(
        std::min<uint64_t>(loadTokens + k * cfg.loadPorts,
                           2 * cfg.loadPorts));
    now = target - 1;
}

RunResult
OooCore::run()
{
    bool allDone = false;
    while (!allDone && now < cfg.maxCycles) {
        tryFastForward();
        ++now;
        drainEvents();
        checkBlockedLoads();
        retireStage();
        issueStage();
        renameStage();

        allDone = true;
        for (const ThreadCtx& t : threads)
            allDone &= t.done;
    }
    if (!allDone)
        panic("OooCore: exceeded maxCycles (model deadlock?)");

    RunResult r;
    r.cycles = now;
    for (size_t i = 0; i < threads.size(); ++i) {
        r.instructions += threads[i].retired;
        r.threadInstructions[i] = threads[i].retired;
        r.threadFinishCycle[i] = threads[i].finishCycle;
    }
    r.goldenCheckFailed = goldenFailed;
    r.goldenCheckMessage = goldenMsg;
    exportFinalStats(r);
    // Obs-only: idle fast-forward totals go to the observability registry,
    // deliberately not into RunResult (which golden fingerprints cover).
    {
        static ObsCounter& ffCycles = obsCounter("sim.idle_ff_cycles");
        ffCycles.add(idleFastForwardedCycles);
    }
    return r;
}

} // namespace constable
