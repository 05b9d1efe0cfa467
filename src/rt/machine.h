/**
 * @file
 * The simulated machine and its per-thread programming interface.
 *
 * Machine builds the simulated chip (memory system + HTM) and runs the
 * simulated threads, each on a fiber, always resuming the thread with
 * the smallest next-ready cycle (within a small scheduling quantum, like
 * zsim's bound phases). Runnable threads live on an event-driven wakeup
 * list — a binary min-heap keyed by (next-ready cycle, core id) — so a
 * resume costs O(log threads) even when most fibers are parked on
 * multi-thousand-cycle abort backoffs (docs/ARCHITECTURE.md Sec. 2.2).
 * ThreadContext is the "ISA" workloads program against: conventional
 * and labeled loads/stores, load_gather, txRun (tx_begin/tx_end with
 * retry and backoff), compute, and barriers.
 */

#ifndef COMMTM_RT_MACHINE_H
#define COMMTM_RT_MACHINE_H

#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "commtm/label.h"
#include "htm/htm.h"
#include "mem/coherence.h"
#include "sim/commit_log.h"
#include "sim/check.h"
#include "sim/config.h"
#include "sim/fiber.h"
#include "sim/invariants.h"
#include "sim/memory.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "trace/trace_writer.h"

namespace commtm {

class Machine;

/**
 * Execution context of one simulated hardware thread. Workload code
 * receives a ThreadContext& and uses it for every interaction with the
 * simulated machine.
 */
class ThreadContext
{
  public:
    ThreadContext(Machine &machine, CoreId core, uint64_t seed)
        : machine_(machine), core_(core), rng_(seed)
    {
    }

    CoreId id() const { return core_; }
    Cycle now() const { return nextCycle_; }
    Machine &machine() { return machine_; }
    Rng &rng() { return rng_; }

    /** Charge @p instrs cycles of computation (IPC-1 cores). */
    void compute(uint64_t instrs);

    /** Conventional load/store of a small scalar. */
    template <typename T> T read(Addr addr);
    template <typename T> void write(Addr addr, const T &value);

    /**
     * Untyped single-issue access paths: the typed templates (and the
     * per-line chunks of readBytes/writeBytes) reduce to these, and
     * the trace ReplayFrontend re-issues captured records through
     * them. An access must not straddle a cache line (the templates
     * guarantee this for scalars; readBytes chunks at line bounds).
     */
    void readUntyped(Addr addr, void *out, size_t size);
    void writeUntyped(Addr addr, const void *src, size_t size);
    void readLabeledUntyped(Addr addr, Label label, void *out,
                            size_t size);
    void writeLabeledUntyped(Addr addr, Label label, const void *src,
                             size_t size);
    void readGatherUntyped(Addr addr, Label label, void *out,
                           size_t size);

    /** Block (vector-style) access: one memory operation per line
     *  touched. For bulk reads/writes of arrays (e.g., feature
     *  vectors); same coherence/conflict semantics as scalar ops. */
    void readBytes(Addr addr, void *out, size_t size);
    void writeBytes(Addr addr, const void *src, size_t size);

    /** Labeled load/store (Sec. III-A). */
    template <typename T> T readLabeled(Addr addr, Label label);
    template <typename T>
    void writeLabeled(Addr addr, Label label, const T &value);

    /** load_gather (Sec. IV): redistribute partial updates, then read. */
    template <typename T> T readGather(Addr addr, Label label);

    /**
     * Run @p body as a transaction: begin, execute, commit; on abort,
     * back off and retry (the timestamped conflict-resolution protocol
     * makes a software fallback unnecessary, Sec. V). Nested calls
     * execute flat (closed nesting). @p body is a template parameter
     * (not std::function): workloads start millions of transactions,
     * and a type-erased callable per transaction costs an allocation.
     */
    template <typename Body> void txRun(Body &&body);

    bool inTx() const { return inTx_; }

    /**
     * True once the current transaction attempt has aborted (remote
     * conflict, NACK, capacity, or txAbort). From that point every
     * machine operation is a no-op returning zero data; transaction
     * bodies must check this after reads whose values steer control
     * flow or host-side state and return, letting txRun() retry. This
     * is the cooperative-unwind contract (docs/ARCHITECTURE.md,
     * "Abort control flow"). A body that never checks fails a
     * COMMTM_CHECK once it exhausts kAbortNoOpBudget.
     */
    bool txAborted() const { return txAbortPending_; }

    /** Cooperatively abort the current transaction attempt: latches
     *  the pending-abort flag; the body must still return. */
    void
    txAbort(AbortCause cause = AbortCause::Explicit)
    {
        assert(inTx_);
        if (!txAbortPending_)
            noteAbort(cause, false);
    }

    /**
     * Structure-op annotation: note a library-level operation (e.g.
     * "counter add", trace_format.h codes) into the capture trace.
     * Strictly observation-only — a no-op unless a trace is being
     * captured, and never affects simulated behavior either way.
     */
    void
    annotate(uint32_t code, uint64_t value)
    {
        if (trace_ && !txAbortPending_)
            trace_->noteAnnotation(core_, code, value);
    }

    /** Wait until every live simulated thread reaches the barrier. */
    void barrier();

    /** This thread's statistics (cycle breakdowns, commits, aborts). */
    ThreadStats stats;

  private:
    friend class Machine;

    /** Advance simulated time, attribute cycles, maybe yield. */
    void advance(Cycle cycles);
    /** Latch a pending abort if a remote conflict doomed our
     *  transaction (no unwinding: operations turn into no-ops and the
     *  body is expected to return; see txAborted()). */
    void checkDoomed();
    /** Record why the current attempt aborts; operations become
     *  no-ops until txRun()'s retry loop observes the flag. */
    void noteAbort(AbortCause cause, bool demote);
    /** Called per operation issued while the abort is pending; fails
     *  a COMMTM_CHECK once the no-op budget is spent. */
    void abortedNoOp();
    /** Map a (possibly labeled) op through the system mode and label
     *  virtualization: baseline/demoted ops become conventional. */
    MemOp effectiveOp(MemOp op, Label &label) const;

    AccessResult issue(Addr addr, uint32_t size, MemOp op, Label label);
    void functionalRead(Addr addr, void *out, size_t size, bool labeled);
    void functionalWrite(Addr addr, const void *src, size_t size,
                         bool labeled);
    /** Observation-only: fold a labeled op that stayed labeled into
     *  the commit log's pending digests (no-op when recording is off
     *  or outside a transaction). */
    void noteLabeledOp(CommitOpKind kind, Addr addr, Label label,
                       const void *operand, uint32_t size);
    /** Observation-only, at the commit point: fold the conventional
     *  write-buffer lines into @p log and seal the record. */
    void sealCommit(CommitLog &log);

    Machine &machine_;
    CoreId core_;
    Rng rng_;

    /** Capture sink, or nullptr when tracing is off (the common case:
     *  every hook below is then a single pointer test, the same
     *  zero-cost discipline as commit recording). Wired by
     *  Machine::addThread. */
    TraceWriter *trace_ = nullptr;

    Fiber *fiber_ = nullptr;
    Cycle nextCycle_ = 0;
    bool finished_ = false;
    bool blocked_ = false;

    bool inTx_ = false;
    Cycle txAcc_ = 0; //!< cycles accumulated by the current attempt

    /** Cooperative-unwind state: set by noteAbort, consumed by txRun.
     *  While pending, issue()/compute() and the functional accessors
     *  are no-ops (no cycles, no stats, no memory effects). */
    bool txAbortPending_ = false;
    AbortCause abortCause_ = AbortCause::Explicit;
    bool abortDemote_ = false;
    /** Operations issued since the abort latched, bounded by
     *  kAbortNoOpBudget. */
    uint32_t abortedOps_ = 0;

    /** No-op operations a body may issue after its abort before the
     *  run fails as non-cooperative. Generous: cooperative bodies
     *  check txAborted() at loop heads and return long before this;
     *  without the bound, a body whose control flow never consults
     *  the (zeroed) read results would hang the simulation. */
    static constexpr uint32_t kAbortNoOpBudget = 4096;
};

/**
 * The simulated chip plus the threads running on it. Typical use:
 *
 *   Machine m(cfg);
 *   Label add = m.labels().define(labels::makeAdd<int64_t>("ADD"));
 *   Addr counter = m.allocator().allocLines(1);
 *   for (int t = 0; t < n; t++)
 *       m.addThread([&](ThreadContext &ctx) { ... });
 *   m.run();
 *   StatsSnapshot s = m.stats();
 */
class Machine
{
  public:
    explicit Machine(MachineConfig cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg_; }
    LabelRegistry &labels() { return labels_; }
    SimMemory &memory() { return memory_; }
    SimAllocator &allocator() { return alloc_; }
    MemorySystem &memSys() { return *mem_; }
    HtmManager &htm() { return *htm_; }
    Rng &rng() { return rng_; }

    /** The commit log, or nullptr when recording is off (see
     *  MachineConfig::recordCommits and COMMTM_RECORD_COMMITS). */
    CommitLog *commitLog() { return commitLog_.get(); }
    const CommitLog *commitLog() const { return commitLog_.get(); }

    /** The invariant checker, or nullptr when checking is off (see
     *  MachineConfig::checkInvariants and COMMTM_CHECK_INVARIANTS). */
    InvariantChecker *invariantChecker() { return invariants_.get(); }

    /** The trace writer, or nullptr when capture is off (see
     *  MachineConfig::captureTrace and COMMTM_CAPTURE_TRACE). */
    TraceWriter *traceWriter() { return trace_.get(); }
    const TraceWriter *traceWriter() const { return trace_.get(); }

    using ThreadFn = std::function<void(ThreadContext &)>;

    /** Add a simulated thread; it runs when run() is called. Threads
     *  are assigned cores in creation order. */
    ThreadContext &addThread(ThreadFn fn);

    /** Run all threads to completion. */
    void run();

    /** Snapshot of per-thread and machine-wide statistics. */
    StatsSnapshot stats() const;

    /** Zero all statistics (e.g., after a warm-up phase). */
    void resetStats();

    /** Machine-wide statistics (coherence events). */
    MachineStats &machineStats() { return machineStats_; }

  private:
    friend class ThreadContext;

    static constexpr Cycle kInfinity =
        std::numeric_limits<Cycle>::max();

    /** One wakeup-list entry. The (cycle, core) key is copied inline
     *  so heap sifts compare contiguous memory instead of chasing
     *  ThreadContext pointers spread across the heap-allocated
     *  contexts — the sift comparisons are the hot half of a resume. */
    struct ReadyEntry {
        Cycle cycle;
        CoreId core;
        ThreadContext *ctx;
    };

    /** Wakeup-list ordering: earlier next-ready cycle first, core id
     *  breaking ties (the same total order the reference scan's
     *  first-strictly-smaller walk over creation order yields, since
     *  threadCore is the identity mapping). */
    static bool
    readyBefore(const ReadyEntry &a, const ReadyEntry &b)
    {
        return a.cycle != b.cycle ? a.cycle < b.cycle : a.core < b.core;
    }

    /** Register a wakeup: sift @p t into the ready heap keyed by its
     *  current nextCycle_. The key must not change while queued. */
    void readyPush(ThreadContext *t);
    /** Pop the (cycle, core)-smallest runnable thread, or nullptr. */
    ThreadContext *readyPop();
    /** Key of the heap minimum, or kInfinity when empty. */
    Cycle readyPeekCycle() const;
    /** Reference scheduler: re-pick via the pre-wakeup-list linear
     *  scan and COMMTM_CHECK it agrees with the heap's choice. */
    void schedulerCrossCheck(const ThreadContext *picked,
                             Cycle second) const;

    void barrierArrive(ThreadContext &t);
    void checkBarrierRelease();
    uint32_t liveThreads() const;

    /** Commit/abort-boundary invariant sweep (txRun); a no-op unless
     *  checking is on at MachineConfig::invariantDense density. */
    void
    invariantSync(InvariantChecker::SyncPoint where)
    {
        if (invariants_ && cfg_.invariantDense)
            invariants_->check(where);
    }

    MachineConfig cfg_;
    Rng rng_;
    LabelRegistry labels_;
    SimMemory memory_;
    SimAllocator alloc_;
    MachineStats machineStats_;
    std::unique_ptr<CommitLog> commitLog_;
    std::unique_ptr<TraceWriter> trace_;
    /** When nonempty, run() writes the serialized capture here at the
     *  end of every run (COMMTM_CAPTURE_TRACE=<path>). */
    std::string traceFile_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<HtmManager> htm_;
    std::unique_ptr<InvariantChecker> invariants_;
    /** Next cycle at which run() owes a periodic invariant sweep. */
    Cycle nextInvariantSweep_ = 0;

    struct SimThread {
        std::unique_ptr<ThreadContext> ctx;
        std::unique_ptr<Fiber> fiber;
    };
    std::vector<SimThread> threads_;
    bool running_ = false;

    /** Event-driven wakeup list: a binary min-heap (readyBefore order)
     *  of every runnable thread except the one currently on its fiber.
     *  advance() yields re-register through run(); barrier releases
     *  and finishes register through checkBarrierRelease(). Blocked
     *  and finished threads are simply absent, so parked fibers cost
     *  nothing per resume. */
    std::vector<ReadyEntry> ready_;
    /** The thread currently executing on its fiber (popped off the
     *  ready heap), or nullptr between resumes. A barrier release must
     *  not re-queue it: it is still running and re-queues itself when
     *  it next yields. */
    ThreadContext *current_ = nullptr;
    /** Cross-check cadence resolved from MachineConfig (0 = never). */
    uint32_t crossCheckEvery_ = 0;
    uint32_t crossCheckCountdown_ = 0;

    /** Yield threshold for the running thread (scheduling quantum). */
    Cycle yieldThreshold_ = kInfinity;

    struct BarrierState {
        uint64_t epoch = 0;
        uint32_t waiting = 0;
        Cycle maxCycle = 0;
    } barrier_;
};

// ---------------------------------------------------------------------
// ThreadContext inline/template implementation
// ---------------------------------------------------------------------

inline void
ThreadContext::advance(Cycle cycles)
{
    nextCycle_ += cycles;
    if (inTx_)
        txAcc_ += cycles;
    else
        stats.nonTxCycles += cycles;
    if (nextCycle_ > machine_.yieldThreshold_ && fiber_)
        fiber_->yield();
}

inline void
ThreadContext::noteAbort(AbortCause cause, bool demote)
{
    assert(inTx_);
    txAbortPending_ = true;
    abortCause_ = cause;
    abortDemote_ = demote;
    abortedOps_ = 0;
}

inline void
ThreadContext::abortedNoOp()
{
    ++abortedOps_;
    COMMTM_CHECK(abortedOps_ <= kAbortNoOpBudget,
                 "core %u issued %u operations after its transaction "
                 "aborted (%s): the body is missing a ctx.txAborted() "
                 "check",
                 unsigned(core_),
                 unsigned(abortedOps_),
                 abortCauseName(abortCause_));
}

inline void
ThreadContext::checkDoomed()
{
    if (inTx_ && !txAbortPending_ && machine_.htm().doomed(core_))
        noteAbort(machine_.htm().doomCause(core_), false);
}

inline void
ThreadContext::compute(uint64_t instrs)
{
    if (txAbortPending_) {
        abortedNoOp();
        return;
    }
    checkDoomed();
    if (txAbortPending_)
        return;
    if (trace_)
        trace_->noteCompute(core_, instrs);
    stats.instrs += instrs;
    advance(instrs);
}

inline MemOp
ThreadContext::effectiveOp(MemOp op, Label &label) const
{
    if (op == MemOp::Load || op == MemOp::Store)
        return op;
    const MachineConfig &cfg = machine_.config();
    const bool demote =
        cfg.mode == SystemMode::BaselineHtm ||
        !machine_.labels_.inHardware(label) ||
        (inTx_ && machine_.htm_->demoted(core_));
    if (demote) {
        label = kNoLabel;
        return op == MemOp::LabeledStore ? MemOp::Store : MemOp::Load;
    }
    if (op == MemOp::Gather && cfg.mode == SystemMode::CommTmNoGather) {
        // Without gather support the conditional check falls back to a
        // conventional load, which triggers a full reduction (Sec. IV).
        label = kNoLabel;
        return MemOp::Load;
    }
    return op;
}

inline AccessResult
ThreadContext::issue(Addr addr, uint32_t size, MemOp op, Label label)
{
    if (txAbortPending_) {
        abortedNoOp();
        return AccessResult{};
    }
    checkDoomed();
    if (txAbortPending_)
        return AccessResult{};
    stats.instrs++;
    if (op == MemOp::LabeledLoad || op == MemOp::LabeledStore ||
        op == MemOp::Gather) {
        stats.labeledInstrs++;
    }
    Access a;
    a.core = core_;
    a.addr = addr;
    a.size = size;
    a.op = op;
    a.label = label;
    a.isTx = inTx_;
    a.ts = inTx_ ? machine_.htm().txTs(core_) : 0;
    if (inTx_ && op == MemOp::Store &&
        machine_.config().conflictDetection == ConflictDetection::Lazy) {
        // Lazy mode: transactional stores buffer silently; fetch the
        // line shared for timing, join the write set for commit-time
        // arbitration (TCC-style, Sec. III-D).
        a.op = MemOp::Load;
        a.lazyWrite = true;
    }
    const AccessResult res = machine_.memSys().access(a);
    advance(res.latency);
    if (res.mustAbort()) {
        assert(inTx_);
        noteAbort(res.cause, res.selfDemote);
        return res;
    }
    checkDoomed(); // our own access may have doomed us (capacity abort)
    return res;
}

inline void
ThreadContext::functionalRead(Addr addr, void *out, size_t size,
                              bool labeled)
{
    // U-held lines read from the core's reducible copy; everything else
    // from committed simulated memory; the transaction's own buffered
    // writes overlay both.
    const Addr line = lineAddr(addr);
    if (labeled && machine_.memSys().coreHasU(core_, line)) {
        const LineData &copy = machine_.memSys().uCopy(core_, line);
        std::memcpy(out, copy.data() + lineOffset(addr), size);
    } else {
        machine_.memory().read(addr, out, size);
    }
    if (inTx_)
        machine_.htm().writeBuffer(core_).overlay(addr, out, size);
}

inline void
ThreadContext::functionalWrite(Addr addr, const void *src, size_t size,
                               bool labeled)
{
    if (inTx_) {
        machine_.htm().writeBuffer(core_).write(addr, src, size);
        return;
    }
    const Addr line = lineAddr(addr);
    if (labeled && machine_.memSys().coreHasU(core_, line)) {
        LineData &copy = machine_.memSys().uCopy(core_, line);
        std::memcpy(copy.data() + lineOffset(addr), src, size);
    } else {
        machine_.memory().write(addr, src, size);
    }
}

inline void
ThreadContext::noteLabeledOp(CommitOpKind kind, Addr addr, Label label,
                             const void *operand, uint32_t size)
{
    if (inTx_ && machine_.commitLog_) {
        machine_.commitLog_->noteLabeledOp(core_, kind, addr, label,
                                           operand, size);
    }
}

inline void
ThreadContext::readBytes(Addr addr, void *out, size_t size)
{
    auto *dst = static_cast<uint8_t *>(out);
    while (size > 0) {
        const size_t chunk =
            std::min(size, size_t(kLineSize - lineOffset(addr)));
        readUntyped(addr, dst, chunk);
        if (txAbortPending_)
            return; // buffer contents are garbage; caller must retry
        dst += chunk;
        addr += chunk;
        size -= chunk;
    }
}

inline void
ThreadContext::writeBytes(Addr addr, const void *src, size_t size)
{
    const auto *from = static_cast<const uint8_t *>(src);
    while (size > 0) {
        const size_t chunk =
            std::min(size, size_t(kLineSize - lineOffset(addr)));
        writeUntyped(addr, from, chunk);
        if (txAbortPending_)
            return;
        from += chunk;
        addr += chunk;
        size -= chunk;
    }
}

// On a pending abort, reads return T{} (all-zero) and writes vanish:
// the zero sentinel keeps pointer-chasing loops in not-yet-checked
// body code terminating harmlessly until the body observes
// txAborted().
//
// Capture hooks record each op at the API level, before the issue
// path resolves label demotion, gather fallback, or the lazy-mode
// store conversion: a replay re-resolves those through the machine it
// runs on. Ops issued while an abort is already pending are true
// no-ops and are not recorded; ops of an attempt that later aborts
// are truncated away by the writer (trace/trace_writer.h), so the
// captured stream holds exactly the committed attempts.

inline void
ThreadContext::readUntyped(Addr addr, void *out, size_t size)
{
    assert(lineOffset(addr) + size <= kLineSize);
    if (trace_ && !txAbortPending_)
        trace_->noteLoad(core_, addr, uint32_t(size));
    issue(addr, uint32_t(size), MemOp::Load, kNoLabel);
    if (txAbortPending_)
        return;
    functionalRead(addr, out, size, false);
}

inline void
ThreadContext::writeUntyped(Addr addr, const void *src, size_t size)
{
    assert(lineOffset(addr) + size <= kLineSize);
    if (trace_ && !txAbortPending_)
        trace_->noteStore(core_, addr, uint32_t(size), src);
    issue(addr, uint32_t(size), MemOp::Store, kNoLabel);
    if (txAbortPending_)
        return;
    functionalWrite(addr, src, size, false);
}

inline void
ThreadContext::readLabeledUntyped(Addr addr, Label label, void *out,
                                  size_t size)
{
    assert(lineOffset(addr) + size <= kLineSize);
    if (trace_ && !txAbortPending_)
        trace_->noteLabeledLoad(core_, addr, uint32_t(size), label);
    const MemOp op = effectiveOp(MemOp::LabeledLoad, label);
    issue(addr, uint32_t(size), op, label);
    if (txAbortPending_)
        return;
    functionalRead(addr, out, size, op == MemOp::LabeledLoad);
    if (op == MemOp::LabeledLoad) {
        noteLabeledOp(CommitOpKind::LabeledLoad, addr, label, nullptr,
                      uint32_t(size));
    }
}

inline void
ThreadContext::writeLabeledUntyped(Addr addr, Label label,
                                   const void *src, size_t size)
{
    assert(lineOffset(addr) + size <= kLineSize);
    if (trace_ && !txAbortPending_)
        trace_->noteLabeledStore(core_, addr, uint32_t(size), label,
                                 src);
    const MemOp op = effectiveOp(MemOp::LabeledStore, label);
    issue(addr, uint32_t(size), op, label);
    if (txAbortPending_)
        return;
    functionalWrite(addr, src, size, op == MemOp::LabeledStore);
    if (op == MemOp::LabeledStore) {
        noteLabeledOp(CommitOpKind::LabeledStore, addr, label, src,
                      uint32_t(size));
    }
}

inline void
ThreadContext::readGatherUntyped(Addr addr, Label label, void *out,
                                 size_t size)
{
    assert(lineOffset(addr) + size <= kLineSize);
    if (trace_ && !txAbortPending_)
        trace_->noteGather(core_, addr, uint32_t(size), label);
    const MemOp op = effectiveOp(MemOp::Gather, label);
    issue(addr, uint32_t(size), op, label);
    if (txAbortPending_)
        return;
    functionalRead(addr, out, size, op == MemOp::Gather);
    if (op == MemOp::Gather) {
        noteLabeledOp(CommitOpKind::Gather, addr, label, nullptr,
                      uint32_t(size));
    }
}

template <typename T>
T
ThreadContext::read(Addr addr)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    readUntyped(addr, &value, sizeof(T));
    return value;
}

template <typename T>
void
ThreadContext::write(Addr addr, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    writeUntyped(addr, &value, sizeof(T));
}

template <typename T>
T
ThreadContext::readLabeled(Addr addr, Label label)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    readLabeledUntyped(addr, label, &value, sizeof(T));
    return value;
}

template <typename T>
void
ThreadContext::writeLabeled(Addr addr, Label label, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    writeLabeledUntyped(addr, label, &value, sizeof(T));
}

template <typename T>
T
ThreadContext::readGather(Addr addr, Label label)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    readGatherUntyped(addr, label, &value, sizeof(T));
    return value;
}

template <typename Body>
void
ThreadContext::txRun(Body &&body)
{
    if (inTx_) {
        // Closed flat nesting: the inner transaction is subsumed.
        body();
        return;
    }
    HtmManager &htm = machine_.htm();
    for (;;) {
        htm.beginAttempt(core_);
        if (trace_)
            trace_->beginAttempt(core_);
        stats.txStarted++;
        inTx_ = true;
        txAcc_ = 0;
        txAbortPending_ = false;
        advance(machine_.config().txBeginCost);
        body();
        // Commit point. The body returned; any abort it absorbed is in
        // txAbortPending_. The two checkDoomed() calls catch a doom
        // latched during the body, then one latched while the
        // commit-cost advance yielded.
        if (!txAbortPending_)
            checkDoomed();
        if (!txAbortPending_) {
            advance(machine_.config().txCommitCost);
            checkDoomed();
        }
        if (!txAbortPending_) {
            // Commit. The commit itself is atomic in simulated time;
            // sealing the commit-log record and closing the captured
            // attempt before the latency advance (which can yield)
            // guarantees both observers see the functional commit
            // order.
            if (machine_.commitLog_)
                sealCommit(*machine_.commitLog_);
            const Cycle commitLat = htm.commit(core_);
            if (trace_)
                trace_->commitAttempt(core_);
            advance(commitLat);
            stats.txCommitted++;
            stats.txCommittedCycles += txAcc_;
            txAcc_ = 0;
            inTx_ = false;
            htm.finish(core_);
            machine_.invariantSync(InvariantChecker::SyncPoint::Commit);
            return;
        }
        const AbortCause cause = abortCause_;
        if (machine_.commitLog_)
            machine_.commitLog_->abortAttempt(core_);
        if (trace_)
            trace_->abortAttempt(core_);
        const Cycle backoff = htm.abortAttempt(core_, cause, rng_);
        if (abortDemote_)
            htm.setDemoted(core_);
        advance(backoff); // stall attributed to the wasted attempt
        stats.txAborted++;
        stats.abortsByCause[size_t(cause)]++;
        stats.txAbortedCycles += txAcc_;
        stats.wastedByCause[size_t(wasteBucket(cause))] += txAcc_;
        txAcc_ = 0;
        txAbortPending_ = false;
        inTx_ = false;
        machine_.invariantSync(InvariantChecker::SyncPoint::Abort);
        // retry
    }
}

} // namespace commtm

#endif // COMMTM_RT_MACHINE_H
