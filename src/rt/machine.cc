/**
 * @file
 * Machine implementation: thread creation, the deterministic
 * smallest-next-cycle scheduler loop (event-driven wakeup list with a
 * sampled linear-scan cross-check), barriers, txRun's
 * begin/commit/backoff-retry driver, and stats collection.
 */

#include "rt/machine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/check.h"

namespace commtm {

/** Default reference-scheduler cross-check cadence when the config
 *  leaves schedCrossCheckEvery at 0: sampled in Debug builds (dense
 *  enough that every fuzz/determinism run exercises the comparison,
 *  sparse enough that Debug fuzz stays linear in thread count), off in
 *  Release. */
#ifndef NDEBUG
static constexpr uint32_t kDefaultCrossCheckEvery = 1024;
#else
static constexpr uint32_t kDefaultCrossCheckEvery = 0;
#endif

/** Cycles between periodic invariant sweeps (Sec. 10.2). */
static constexpr Cycle kInvariantPeriod = 100000;

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), labels_(cfg.hwLabels)
{
    // Geometry is runtime-configurable (forCores scales past Table I);
    // reject inconsistent configs up front rather than corrupting a
    // run with out-of-grid tiles or ragged cache sets.
    if (const char *err = cfg_.validate()) {
        std::fprintf(stderr, "invalid MachineConfig: %s\n", err);
        std::abort();
    }
    mem_ = std::make_unique<MemorySystem>(cfg_, memory_, labels_,
                                          machineStats_, rng_);
    htm_ = std::make_unique<HtmManager>(cfg_, *mem_, memory_);
    // COMMTM_RECORD_COMMITS forces observation-only commit recording
    // on for any run (the CI oracle legs use it to prove the baseline
    // wall is bit-identical with the log enabled).
    if (cfg_.recordCommits || std::getenv("COMMTM_RECORD_COMMITS"))
        commitLog_ = std::make_unique<CommitLog>(cfg_.numCores);
    // COMMTM_CAPTURE_TRACE forces observation-only trace capture on
    // for any run (the CI baseline legs use it to prove the wall is
    // bit-identical with the hooks live). Any value enables capture;
    // a value containing '/' or '.' is additionally taken as a path
    // that run() serializes the capture to (tools/trace_info reads
    // it).
    const char *trace_env = std::getenv("COMMTM_CAPTURE_TRACE");
    if (cfg_.captureTrace || trace_env) {
        trace_ = std::make_unique<TraceWriter>(cfg_);
        if (trace_env && (std::strchr(trace_env, '/') ||
                          std::strchr(trace_env, '.'))) {
            traceFile_ = trace_env;
        }
    }
    // COMMTM_CHECK_INVARIANTS forces observation-only invariant sweeps
    // on for any run: any value enables the periodic sweeps, "drain"
    // adds the dense transaction-boundary and end-of-drain-loop sweeps
    // (fuzz-scale machines only; see MachineConfig::invariantDense).
    if (const char *env = std::getenv("COMMTM_CHECK_INVARIANTS")) {
        cfg_.checkInvariants = true;
        if (std::strcmp(env, "drain") == 0)
            cfg_.invariantDense = true;
    }
    if (cfg_.checkInvariants) {
        invariants_ =
            std::make_unique<InvariantChecker>(cfg_, *mem_, *htm_);
        if (cfg_.invariantDense)
            mem_->setInvariantChecker(invariants_.get());
    }
    crossCheckEvery_ = cfg_.schedCrossCheckEvery
                           ? cfg_.schedCrossCheckEvery
                           : kDefaultCrossCheckEvery;
}

Machine::~Machine() = default;

ThreadContext &
Machine::addThread(ThreadFn fn)
{
    assert(!running_);
    assert(threads_.size() < cfg_.numCores &&
           "more simulated threads than cores");
    const CoreId core = cfg_.threadCore(uint32_t(threads_.size()));
    assert(core < cfg_.numCores);
    SimThread st;
    st.ctx = std::make_unique<ThreadContext>(
        *this, core, cfg_.seed ^ (0x1234567ull * (core + 1)));
    st.ctx->trace_ = trace_.get();
    ThreadContext *ctx = st.ctx.get();
    auto entry = [this, ctx, fn = std::move(fn)]() {
        fn(*ctx);
        ctx->finished_ = true;
    };
    st.fiber = std::make_unique<Fiber>(std::move(entry), core);
    ctx->fiber_ = st.fiber.get();
    threads_.push_back(std::move(st));
    return *ctx;
}

uint32_t
Machine::liveThreads() const
{
    uint32_t live = 0;
    for (const auto &t : threads_) {
        if (!t.ctx->finished_)
            live++;
    }
    return live;
}

void
Machine::readyPush(ThreadContext *t)
{
    assert(!t->finished_ && !t->blocked_);
    const ReadyEntry entry{t->nextCycle_, t->core_, t};
    size_t i = ready_.size();
    ready_.push_back(entry);
    while (i > 0) {
        const size_t parent = (i - 1) / 2;
        if (!readyBefore(entry, ready_[parent]))
            break;
        ready_[i] = ready_[parent];
        i = parent;
    }
    ready_[i] = entry;
}

ThreadContext *
Machine::readyPop()
{
    if (ready_.empty())
        return nullptr;
    ThreadContext *top = ready_.front().ctx;
    const ReadyEntry last = ready_.back();
    ready_.pop_back();
    const size_t n = ready_.size();
    if (n > 0) {
        size_t i = 0;
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n)
                break;
            const size_t right = child + 1;
            if (right < n && readyBefore(ready_[right], ready_[child]))
                child = right;
            if (!readyBefore(ready_[child], last))
                break;
            ready_[i] = ready_[child];
            i = child;
        }
        ready_[i] = last;
    }
    return top;
}

Cycle
Machine::readyPeekCycle() const
{
    return ready_.empty() ? kInfinity : ready_.front().cycle;
}

void
Machine::schedulerCrossCheck(const ThreadContext *picked,
                             Cycle second) const
{
    // Reference scheduler: the pre-wakeup-list fused linear scan
    // (winner = first thread with a strictly smaller key in creation
    // order, runner-up = smallest key among the rest). The heap must
    // agree on both; sampling keeps the comparison from re-making
    // Debug runs quadratic in thread count the way the old per-resume
    // othersMin assert did.
    const ThreadContext *ref = nullptr;
    Cycle refSecond = kInfinity;
    for (const auto &t : threads_) {
        const ThreadContext *c = t.ctx.get();
        if (c->finished_ || c->blocked_)
            continue;
        if (!ref) {
            ref = c;
        } else if (c->nextCycle_ < ref->nextCycle_) {
            refSecond = ref->nextCycle_;
            ref = c;
        } else if (c->nextCycle_ < refSecond) {
            refSecond = c->nextCycle_;
        }
    }
    COMMTM_CHECK(ref == picked,
                 "scheduler divergence: wakeup list resumed core %u "
                 "@%llu; the reference scan picks core %d @%llu",
                 picked->core_,
                 (unsigned long long)picked->nextCycle_,
                 ref ? int(ref->core_) : -1,
                 (unsigned long long)(ref ? ref->nextCycle_ : 0));
    COMMTM_CHECK(refSecond == second,
                 "scheduler divergence: wakeup-list runner-up key "
                 "%llu; the reference scan says %llu",
                 (unsigned long long)second,
                 (unsigned long long)refSecond);
}

void
Machine::run()
{
    assert(!threads_.empty());
    running_ = true;
    // Seed the wakeup list with every runnable thread. (A second run()
    // after all threads finished pops nothing and exits through the
    // deadlock assert's liveThreads() == 0 arm, as before.)
    ready_.clear();
    ready_.reserve(threads_.size());
    for (const auto &t : threads_) {
        ThreadContext *c = t.ctx.get();
        if (!c->finished_ && !c->blocked_)
            readyPush(c);
    }
    crossCheckCountdown_ = crossCheckEvery_;
    for (;;) {
        // Resume the runnable thread with the smallest next-ready cycle
        // (ties broken by core id for determinism): the heap minimum.
        // The runner-up key — what the old fused scan called `second`
        // — is a peek at the new minimum after the pop.
        ThreadContext *best = readyPop();
        if (!best) {
            assert(liveThreads() == 0 &&
                   "deadlock: all live threads blocked on a barrier");
            break;
        }
        const Cycle second = readyPeekCycle();
        if (crossCheckEvery_ != 0 && --crossCheckCountdown_ == 0) {
            crossCheckCountdown_ = crossCheckEvery_;
            schedulerCrossCheck(best, second);
        }
        // Scheduler boundaries are consistent sync points: no access()
        // frame or handler is in flight between fiber resumes.
        if (invariants_ && best->nextCycle_ >= nextInvariantSweep_) {
            invariants_->check(InvariantChecker::SyncPoint::Periodic);
            nextInvariantSweep_ = best->nextCycle_ + kInvariantPeriod;
        }
        yieldThreshold_ = second;
        if (yieldThreshold_ != kInfinity)
            yieldThreshold_ += cfg_.schedQuantum;
        current_ = best;
        best->fiber_->resume();
        current_ = nullptr;
        if (best->fiber_->finished()) {
            best->finished_ = true;
            // A finishing thread may make a pending barrier releasable.
            checkBarrierRelease();
        } else if (!best->blocked_) {
            // The fiber yielded past its quantum (compute, memory
            // latency, or an abort-backoff stall): re-register its
            // wakeup at the advanced next-ready cycle. A blocked
            // thread stays off the list until the barrier release
            // re-registers it.
            readyPush(best);
        }
    }
    running_ = false;
    // Final sweep: every run ends with at least one full check, even
    // when it was shorter than kInvariantPeriod.
    if (invariants_)
        invariants_->check(InvariantChecker::SyncPoint::Manual);
    // COMMTM_CAPTURE_TRACE=<path>: persist the capture (re-written at
    // the end of every run; the last machine/run wins).
    if (trace_ && !traceFile_.empty()) {
        const std::vector<uint8_t> bytes = trace_->serialize();
        const char *path = traceFile_.c_str();
        std::FILE *f = std::fopen(path, "wb");
        COMMTM_CHECK(f, "cannot open trace file %s", path);
        COMMTM_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                         bytes.size(),
                     "short write to trace file %s", path);
        COMMTM_CHECK(std::fclose(f) == 0,
                     "cannot close trace file %s", path);
    }
}

void
Machine::barrierArrive(ThreadContext &t)
{
    assert(!t.inTx_ && "barriers inside transactions would deadlock");
    barrier_.waiting++;
    barrier_.maxCycle = std::max(barrier_.maxCycle, t.nextCycle_);
    const uint64_t my_epoch = barrier_.epoch;
    t.blocked_ = true;
    checkBarrierRelease();
    while (barrier_.epoch == my_epoch) {
        assert(t.blocked_);
        t.fiber_->yield();
    }
    assert(!t.blocked_);
}

void
Machine::checkBarrierRelease()
{
    if (barrier_.waiting == 0)
        return;
    // Count live threads that have not yet arrived.
    uint32_t pending = 0;
    for (const auto &t : threads_) {
        if (!t.ctx->finished_ && !t.ctx->blocked_)
            pending++;
    }
    if (pending > 0)
        return;
    // Everyone alive has arrived: release. Each released thread
    // re-registers its wakeup at the release cycle — except the
    // currently-running one (the last arriver releasing itself from
    // inside barrierArrive), which is off the list while it runs and
    // re-queues itself when it next yields.
    const Cycle release = barrier_.maxCycle + 2;
    barrier_.epoch++;
    barrier_.waiting = 0;
    barrier_.maxCycle = 0;
    for (const auto &t : threads_) {
        if (t.ctx->blocked_) {
            t.ctx->blocked_ = false;
            t.ctx->nextCycle_ = release;
            if (t.ctx.get() != current_)
                readyPush(t.ctx.get());
        }
    }
}

StatsSnapshot
Machine::stats() const
{
    StatsSnapshot snap;
    snap.threads.reserve(threads_.size());
    for (const auto &t : threads_)
        snap.threads.push_back(t.ctx->stats);
    snap.machine = machineStats_;
    return snap;
}

void
Machine::resetStats()
{
    for (auto &t : threads_)
        t.ctx->stats = ThreadStats{};
    machineStats_ = MachineStats{};
}

// ---------------------------------------------------------------------
// ThreadContext out-of-line members
// ---------------------------------------------------------------------

void
ThreadContext::sealCommit(CommitLog &log)
{
    HtmManager &htm = machine_.htm();
    htm.writeBuffer(core_).forEach(
        [&](Addr line, const WriteBuffer::Entry &e) {
            // Labeled lines commit into U partials whose bytes are
            // order-dependent; the write digest covers only the
            // conventional write set.
            if (!htm.labeledLine(core_, line))
                log.noteWriteLine(core_, line, e.mask, e.data.data());
        });
    log.sealCommit(core_, nextCycle_);
}

void
ThreadContext::barrier()
{
    // Barriers are forbidden inside transactions (asserted by
    // barrierArrive), so no pending-abort check is needed here.
    if (trace_)
        trace_->noteBarrier(core_);
    machine_.barrierArrive(*this);
}

} // namespace commtm
