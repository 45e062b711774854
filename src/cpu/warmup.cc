/**
 * @file
 * Sampled-simulation support: the functional fast-forward (warm-up) mode
 * and the measured detailed windows. warmupAdvance() replays trace ops in
 * order without OoO scheduling — a branch-predictor-only fast skip far
 * from the next window, then a full functional horizon updating caches/
 * TLB, the store-set heuristic and the active mechanisms' tables — so a
 * later detailed window starts from representative microarchitectural
 * state; runSampleWindows() then runs the normal cycle loop over a chain
 * of measured segments and times only the regions where the pipeline is
 * hot at both endpoints.
 * Driven by sim/sample.cc; full-fidelity run() never calls any of this.
 */

#include "cpu/core.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/logging.hh"

namespace constable {

namespace {

/** 8-byte-aligned chunk key (the same granularity the store-buffer
 *  forwarding index in cpu/mem_pipe.cc probes by). */
inline Addr
chunkOf(Addr a)
{
    return a >> 3;
}

/** A recently warmed store, indexed by chunk for the load probe. */
struct WarmStore
{
    PC pc = 0;
    Addr addr = 0;
    uint8_t size = 0;
    size_t idx = 0;
};

/** Ops within which a store->load pair is treated as an in-flight
 *  dependence by the warm-up heuristics (SB/ROB-distance scale). */
constexpr size_t kWarmStoreRecency = 64;

} // namespace

void
OooCore::warmupAdvance(size_t target_idx, size_t touch_from_idx)
{
    ThreadCtx& t = threads[0];
    CONSTABLE_ASSERT(t.rob.empty(),
                     "functional warm-up with ops still in flight");
    target_idx = std::min(target_idx, t.trace->ops.size());
    if (t.traceIdx >= target_idx)
        return;

    // Outside the detailed-warm horizon only the branch predictor is kept
    // current: its history tables converge over hundreds of thousands of
    // branches, far beyond any affordable full-replay horizon, and the
    // branch-bound configurations (the eliminating mechanisms) are acutely
    // sensitive to its state. Everything else is recency-bounded and
    // converges within the detailed horizon below.
    size_t touchFrom = std::clamp(touch_from_idx, t.traceIdx, target_idx);
    if (t.traceIdx < touchFrom) {
        for (size_t i = t.traceIdx; i < touchFrom; ++i) {
            const MicroOp& op = t.trace->ops[i];
            if (op.cls == OpClass::Branch) {
                branchPred.predict(op.pc);
                branchPred.update(op.pc, op.taken);
                mechs.retireBranch(op.taken);
            }
        }
        t.nextSeq += touchFrom - t.traceIdx;
        t.traceIdx = touchFrom;
        deliverSnoops(t, t.traceIdx);
        // Stores inside the gap were never probed against the AMT, so any
        // armed elimination could deliver a stale value in the next
        // window. Flush the mechanism tracking state; the horizon below
        // re-trains it from true values.
        mechs.onWarmupGap();
    }

    // Recent-store chunk map: drives the store-set (MDP) warm heuristic
    // and the MRN forwarding-producer guess. Entries past the recency
    // bound are dead weight, so a FIFO log retires them as the cursor
    // advances -- without it the map grows with the whole warm region
    // and its lookups dominate long advances.
    std::unordered_map<Addr, WarmStore> recentStores;
    std::deque<std::pair<Addr, size_t>> storeLog;

    while (t.traceIdx < target_idx) {
        const size_t idx = t.traceIdx;
        const MicroOp& op = t.trace->ops[idx];
        deliverSnoops(t, idx);

        while (!storeLog.empty() &&
               idx - storeLog.front().second > kWarmStoreRecency) {
            auto it = recentStores.find(storeLog.front().first);
            if (it != recentStores.end() &&
                it->second.idx == storeLog.front().second)
                recentStores.erase(it);
            storeLog.pop_front();
        }

        if (op.cls == OpClass::Branch) {
            // predict() + update() in the same step, exactly as rename does.
            branchPred.predict(op.pc);
            branchPred.update(op.pc, op.taken);
            mechs.retireBranch(op.taken);
        }

        if (op.isLoad()) {
            memory.load(op.pc, op.effAddr);
            // Store-set / forwarding heuristic: a store to overlapping
            // bytes within ROB/SB distance would disambiguate against (and
            // possibly forward to) this load in the detailed pipeline.
            PC fwdStorePc = 0;
            Addr c0 = chunkOf(op.effAddr);
            Addr c1 = chunkOf(op.effAddr + op.size - 1);
            for (Addr c = c0; c <= c1; ++c) {
                auto it = recentStores.find(c);
                if (it == recentStores.end())
                    continue;
                const WarmStore& st = it->second;
                if (idx - st.idx > kWarmStoreRecency)
                    continue;
                if (!overlaps(st.addr, st.size, op.effAddr, op.size))
                    continue;
                storeSets.merge(op.pc, st.pc);
                if (st.addr <= op.effAddr &&
                    op.effAddr + op.size <= st.addr + st.size)
                    fwdStorePc = st.pc; // full coverage: SB would forward
            }
            mechs.warmupLoad(*this, op, fwdStorePc);
        }

        if (op.isStore()) {
            memory.store(op.pc, op.effAddr);
            mechs.onStoreAddr(op.effAddr);
            Addr c0 = chunkOf(op.effAddr);
            Addr c1 = chunkOf(op.effAddr + op.size - 1);
            for (Addr c = c0; c <= c1; ++c) {
                recentStores[c] = WarmStore{ op.pc, op.effAddr, op.size,
                                             idx };
                storeLog.emplace_back(c, idx);
            }
        }

        // Every destination write drains the RMT / resets SLD entries,
        // exactly as the rename stage's dst-write hook does.
        if (op.dst != kNoReg)
            sldUpdateTotal += mechs.renameDstWrite(op.dst);

        // Keep the wrong-path template ring warm for the detailed window.
        // Only the final 32 ops of the advance survive in the ring, so
        // skip the copy until the cursor is within reach of the target --
        // the result is bit-identical to copying on every iteration.
        if (idx + 32 >= target_idx || t.recentOps.size() < 32) {
            if (t.recentOps.size() < 32)
                t.recentOps.push_back(op);
            else
                t.recentOps[t.nextSeq % 32] = op;
        }

        ++t.traceIdx;
        ++t.nextSeq;
    }
}

std::vector<OooCore::WindowTiming>
OooCore::runSampleWindows(const std::vector<SampleSegment>& segs,
                          size_t rename_limit)
{
    ThreadCtx& t = threads[0];
    const size_t traceSize = t.trace->ops.size();
    CONSTABLE_ASSERT(t.rob.empty(),
                     "sampled window started with ops still in flight");
    CONSTABLE_ASSERT(!segs.empty(), "runSampleWindows with no segments");

    // Retired-count boundary per segment: retiring op index x maps to the
    // count base + (x - cursor), because every op from the cursor to the
    // fence retires exactly once and in order.
    const uint64_t base = t.retired;
    const size_t cursor = t.traceIdx;
    std::vector<uint64_t> startAt(segs.size()), endAt(segs.size());
    size_t lastEnd = 0;
    for (size_t i = 0; i < segs.size(); ++i) {
        size_t b = std::max(segs[i].begin, cursor);
        size_t e = std::min(segs[i].end, traceSize);
        CONSTABLE_ASSERT(b < e && e > lastEnd,
                         "sampled segments must be sorted, non-empty and "
                         "non-overlapping");
        startAt[i] = base + (b - cursor);
        endAt[i] = base + (e - cursor);
        lastEnd = e;
    }
    rename_limit = std::min(std::max(rename_limit, lastEnd), traceSize);
    t.renameLimit = rename_limit;

    std::vector<WindowTiming> out(segs.size());
    size_t cur = 0;
    bool inSeg = false;
    Cycle segStart = now;
    bool done = false;

    // The run() loop body with a different exit condition: stop the moment
    // the retired-op count crosses the last measurement end (checked right
    // after retireStage(), before rename could cross the fence and the
    // idle fast-forward could mistake the fence for a drained trace).
    while (now < cfg.maxCycles) {
        tryFastForward();
        ++now;
        drainEvents();
        checkBlockedLoads();
        retireStage();
        // Advance over every boundary this cycle's retires crossed. Two
        // boundaries can land on the same cycle (adjacent segments share
        // one), so loop until the retire count stops crossing.
        while (cur < out.size()) {
            if (!inSeg) {
                if (t.retired < startAt[cur] && !t.done)
                    break;
                inSeg = true;
                segStart = now;
            }
            if (t.retired < endAt[cur] && !t.done)
                break;
            // Nominal segment length, not the possibly-overshot retire
            // count: same-cycle extras past the boundary belong to the
            // boundary cycle the next segment starts on.
            out[cur].ops = std::min<uint64_t>(t.retired, endAt[cur]) -
                           startAt[cur];
            out[cur].cycles = now > segStart ? now - segStart : 1;
            inSeg = false;
            ++cur;
        }
        if (cur >= out.size() || t.done) {
            done = cur >= out.size();
            break;
        }
        issueStage();
        renameStage();
    }
    if (!done)
        panic("OooCore: sampled window exceeded maxCycles (model "
              "deadlock?)");

    // Flush everything still in flight (the overrun that kept the pipeline
    // fed): squashFrom rewinds the cursor to the first unretired op, so
    // the next warm-up pass resumes exactly where measurement stopped.
    if (!t.rob.empty())
        squashFrom(t, 0, 1);
    t.renameLimit = SIZE_MAX;
    return out;
}

RunResult
OooCore::sampledResult()
{
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
    return r;
}

} // namespace constable
