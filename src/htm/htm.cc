/**
 * @file
 * HtmManager implementation: transaction lifecycle, speculative-set
 * tracking, write-buffer commit into SimMemory / U copies, remote
 * aborts, lazy commit-time arbitration, and randomized backoff.
 */

#include "htm/htm.h"

#include <algorithm>
#include <cassert>

#include "sim/check.h"

namespace commtm {

HtmManager::HtmManager(const MachineConfig &cfg, MemorySystem &mem,
                       SimMemory &memory)
    : cfg_(cfg), mem_(mem), memory_(memory), txs_(cfg.numCores)
{
    mem_.setHtmManager(this);
}

void
HtmManager::beginAttempt(CoreId core)
{
    Tx &tx = txs_[core];
    assert(!tx.active && "nested tx_begin must use the runtime's flat "
                         "nesting support");
    tx.active = true;
    tx.doomed = false;
    if (!tx.tsAssigned) {
        // Timestamps order whole transactions, not attempts: an aborted
        // transaction keeps its timestamp so it ages and eventually wins.
        tx.ts = nextTs_++;
        tx.tsAssigned = true;
    }
}

void
HtmManager::releaseSpecSets(Tx &tx, CoreId core)
{
    for (Addr line : tx.specLines)
        mem_.clearSpec(core, line);
    tx.specLines.clear();
    tx.readSet.clear();
    tx.writeSet.clear();
    tx.labeledSet.clear();
}

void
HtmManager::lazyArbitrate(CoreId committer)
{
    // Commit-time conflict detection (TCC/Bulk-style, Sec. III-D): the
    // committer wins against every concurrent transaction that read or
    // wrote a line it is about to publish. Labeled (commutative) users
    // of the same data do not conflict with each other; they only lose
    // to conventional writes. Victims are scanned in core order and
    // each victim's conflict is attributed to the lowest-addressed
    // conflicting line, so the abort-cause counters are deterministic.
    Tx &me = txs_[committer];
    const std::vector<Addr> write_lines = me.writeSet.sortedKeys();
    const std::vector<Addr> labeled_lines = me.labeledSet.sortedKeys();
    for (CoreId other = 0; other < CoreId(txs_.size()); other++) {
        if (other == committer)
            continue;
        Tx &o = txs_[other];
        if (!o.active || o.doomed)
            continue;
        AbortCause cause = AbortCause::WriteAfterRead;
        bool conflict = false;
        for (Addr line : write_lines) {
            if (o.writeSet.contains(line)) {
                conflict = true;
                cause = AbortCause::WriteAfterWrite;
                break;
            }
            if (o.readSet.contains(line)) {
                conflict = true;
                cause = AbortCause::WriteAfterRead;
                break;
            }
            if (o.labeledSet.contains(line)) {
                conflict = true;
                cause = AbortCause::LabeledConflict;
                break;
            }
        }
        // Published labeled (commutative) updates commute with each
        // other, but NOT with conventional readers or writers of the
        // same line: a transaction that read the full value saw a
        // state this commit just changed. Eager mode rejects exactly
        // this pair at access time (handleGETU battles conventional
        // sharers with ForLabeled); deferring those battles is only
        // sound if they are re-checked here. Without this, a claim
        // over a bounded cell could commit against a stale full read
        // whose token a concurrent labeled commit had already moved
        // (caught by the GridClaim fuzz wall).
        for (size_t i = 0; !conflict && i < labeled_lines.size(); i++) {
            const Addr line = labeled_lines[i];
            if (o.readSet.contains(line) || o.writeSet.contains(line)) {
                conflict = true;
                cause = AbortCause::LabeledConflict;
            }
        }
        if (conflict)
            remoteAbort(other, cause);
    }
}

Cycle
HtmManager::commit(CoreId core)
{
    Tx &tx = txs_[core];
    COMMTM_CHECK(tx.active, "commit on core %u with no transaction",
                 core);
    // txRun's commit point polls the doomed flag right before calling
    // commit, with no yield in between, and nothing in the commit
    // sequence below can doom the committer itself. Committing a
    // doomed transaction would publish conflicting speculative state.
    COMMTM_CHECK(!tx.doomed,
                 "core %u committing a doomed transaction (cause %d); "
                 "the caller must observe the doomed flag first",
                 core, int(tx.doomCause));
    Cycle publish_latency = 0;
    if (cfg_.conflictDetection == ConflictDetection::Lazy) {
        lazyArbitrate(core);
        // Publish buffered conventional writes: acquire each written
        // line exclusively with a non-speculative store, which also
        // invalidates remaining sharers. Labeled lines stay in U.
        // Address order keeps publication latency deterministic.
        for (Addr line : tx.writeSet.sortedKeys()) {
            Access a;
            a.core = core;
            a.addr = lineBase(line);
            a.size = kLineSize;
            a.op = MemOp::Store;
            const AccessResult r = mem_.access(a);
            COMMTM_CHECK(!r.mustAbort(),
                         "lazy commit publication of line 0x%llx "
                         "aborted; arbitration already ran",
                         (unsigned long long)line);
            publish_latency += r.latency;
        }
    }
    // Lazy versioning: make buffered speculative writes visible. Writes
    // to lines this core holds in U commit into the core's reducible
    // copy; everything else commits into simulated memory (Fig. 5).
    tx.wb.forEach([&](Addr line, const WriteBuffer::Entry &e) {
        if (mem_.coreHasU(core, line)) {
            LineData &copy = mem_.uCopy(core, line);
            for (size_t i = 0; i < kLineSize; i++) {
                if (e.mask & (uint64_t(1) << i))
                    copy[i] = e.data[i];
            }
        } else {
            LineData committed = memory_.readLine(line);
            for (size_t i = 0; i < kLineSize; i++) {
                if (e.mask & (uint64_t(1) << i))
                    committed[i] = e.data[i];
            }
            memory_.writeLine(line, committed);
        }
    });
    tx.wb.clear();
    releaseSpecSets(tx, core);
    tx.active = false;
    return publish_latency;
}

Cycle
HtmManager::abortAttempt(CoreId core, AbortCause cause, Rng &rng)
{
    (void)cause;
    Tx &tx = txs_[core];
    assert(tx.active);
    tx.wb.clear();
    releaseSpecSets(tx, core);
    tx.active = false;
    tx.doomed = false;
    tx.attempts++;
    // Randomized exponential backoff avoids livelock pathologies. The
    // returned stall is advanced in one step by txRun, whose yield
    // registers a single far-future wakeup on the scheduler's ready
    // heap: a core parked here costs the scheduler nothing until its
    // backoff expires (rt/machine.cc, the wakeup-list loop).
    const uint32_t exp =
        std::min(tx.attempts, cfg_.backoffMaxExp);
    const Cycle window = cfg_.backoffBase << exp;
    return cfg_.abortCost + rng.below(window ? window : 1);
}

void
HtmManager::finish(CoreId core)
{
    Tx &tx = txs_[core];
    assert(!tx.active);
    tx.tsAssigned = false;
    tx.attempts = 0;
    tx.demoteLabeled = false;
}

void
HtmManager::remoteAbort(CoreId victim, AbortCause cause)
{
    Tx &tx = txs_[victim];
    if (!tx.active || tx.doomed)
        return;
    tx.doomed = true;
    tx.doomCause = cause;
    // Release the speculative sets immediately so the winning request
    // (and subsequent ones) proceed without re-conflicting; the victim
    // discards its buffered writes and unwinds when next scheduled.
    tx.wb.clear();
    releaseSpecSets(tx, victim);
}

} // namespace commtm
