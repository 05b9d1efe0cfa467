/**
 * @file
 * The eager-lazy HTM: eager conflict detection through the coherence
 * protocol, lazy (buffer-based) version management, timestamp-based
 * conflict resolution with NACKs, and randomized backoff (Sec. III-B).
 */

#ifndef COMMTM_HTM_HTM_H
#define COMMTM_HTM_HTM_H

#include <cassert>
#include <vector>

#include "htm/write_buffer.h"
#include "mem/coherence.h"
#include "sim/config.h"
#include "sim/flat_map.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace commtm {

/**
 * Per-machine transaction manager. One transaction context per core
 * (the paper's HTM is single-transaction-per-hardware-thread).
 *
 * HtmManager is the only production implementation of HtmHooks and is
 * final: MemorySystem dispatches to it directly on the access fast
 * path (see MemorySystem::setHtmManager), devirtualizing the hook
 * calls. The HtmHooks interface remains for tests that install
 * instrumented hooks.
 */
class HtmManager final : public HtmHooks
{
  public:
    HtmManager(const MachineConfig &cfg, MemorySystem &mem,
               SimMemory &memory);

    // --- transaction lifecycle (called by the runtime) ---

    /**
     * Start an attempt of a transaction. The timestamp is assigned on
     * the first attempt and kept across retries so older transactions
     * eventually win (livelock freedom, Sec. III-B1).
     */
    void beginAttempt(CoreId core);

    /**
     * Commit: applies the write buffer (U-held lines commit into the
     * core's U copy, everything else into SimMemory) and clears the
     * speculative sets. The caller must have observed the doomed flag
     * (and taken the abort path) first; commit never throws.
     *
     * Under lazy conflict detection this is also the arbitration point
     * (Sec. III-D): the committer aborts every concurrent transaction
     * whose read/write/labeled set intersects its write set, and its
     * buffered writes are made public with non-speculative stores.
     * Both walks visit lines in ascending address order, so victim
     * order and publication order are platform-independent.
     *
     * Commit is atomic in simulated time (no yields). Observers that
     * need the committed write set (the commit log) read it through
     * writeBuffer() and labeledLine() right before calling this.
     * @return extra commit latency (lazy write publication); 0 in
     *         eager mode, where the writes already own their lines.
     */
    Cycle commit(CoreId core);

    /**
     * Locally abort the current attempt: discard the write buffer,
     * release the speculative sets. Returns the backoff delay (cycles)
     * the core must stall before retrying.
     */
    Cycle abortAttempt(CoreId core, AbortCause cause, Rng &rng);

    /** Finish a txRun (after commit): resets per-transaction state. */
    void finish(CoreId core);

    /** The core is inside an active transaction attempt. */
    bool active(CoreId core) const { return txs_[core].active; }

    /** The transaction was doomed by a remote abort; must unwind. */
    bool doomed(CoreId core) const { return txs_[core].doomed; }
    AbortCause doomCause(CoreId core) const { return txs_[core].doomCause; }

    /** Labeled ops demoted to plain ops for this (re-)execution. */
    bool demoted(CoreId core) const { return txs_[core].demoteLabeled; }
    void setDemoted(CoreId core) { txs_[core].demoteLabeled = true; }

    uint32_t attempts(CoreId core) const { return txs_[core].attempts; }

    WriteBuffer &writeBuffer(CoreId core) { return txs_[core].wb; }

    /** @p line is in the labeled set of @p core's attempt: its
     *  buffered writes commit into a U partial, not simulated
     *  memory. */
    bool
    labeledLine(CoreId core, Addr line) const
    {
        return txs_[core].labeledSet.contains(line);
    }

    // --- HtmHooks (called by the coherence protocol) ---
    // Inline and final: MemorySystem's direct-dispatch path relies on
    // these bodies being visible and non-virtual at the call site.
    bool
    inTx(CoreId c) const final
    {
        return txs_[c].active && !txs_[c].doomed;
    }

    Timestamp
    txTs(CoreId c) const final
    {
        assert(txs_[c].active);
        return txs_[c].ts;
    }

    bool
    specModified(CoreId c, Addr line) const final
    {
        return txs_[c].active && txs_[c].wb.touches(line);
    }

    void remoteAbort(CoreId victim, AbortCause cause) final;

    void
    noteSpecLine(CoreId c, Addr line, SpecKind kind) final
    {
        Tx &tx = txs_[c];
        assert(tx.active);
        tx.specLines.push_back(line);
        switch (kind) {
          case SpecKind::Read:
            tx.readSet.insert(line);
            break;
          case SpecKind::Write:
            tx.writeSet.insert(line);
            break;
          case SpecKind::Labeled:
            tx.labeledSet.insert(line);
            break;
        }
    }

  private:
    friend class InvariantChecker;

    struct Tx {
        bool active = false;
        bool doomed = false;
        AbortCause doomCause = AbortCause::Explicit;
        bool tsAssigned = false;
        Timestamp ts = 0;
        uint32_t attempts = 0;
        bool demoteLabeled = false;
        /** Lines with speculative L1 bits, for O(set) release. */
        std::vector<Addr> specLines;
        /** Signature-style sets, used for lazy commit-time arbitration
         *  (cache residency is not required for tracking). Flat and
         *  address-ordered so arbitration order is deterministic. */
        FlatLineSet readSet;
        FlatLineSet writeSet;
        FlatLineSet labeledSet;
        WriteBuffer wb;
    };

    /** Lazy mode: abort every concurrent transaction conflicting with
     *  the committer's write set. */
    void lazyArbitrate(CoreId committer);

    /** Clear all L1 speculative bits of @p core's transaction. */
    void releaseSpecSets(Tx &tx, CoreId core);

    const MachineConfig &cfg_;
    MemorySystem &mem_;
    SimMemory &memory_;
    std::vector<Tx> txs_;
    Timestamp nextTs_ = 1;
};

} // namespace commtm

#endif // COMMTM_HTM_HTM_H
