/**
 * @file
 * Trace-replay sweep (docs/ARCHITECTURE.md Sec. 11): capture the
 * fig09-shaped counter and fig12-shaped (enqueue-only) list workloads
 * once per thread count, then replay each capture across machine
 * variants — {eager, lazy} conflict detection and a half-size cache
 * geometry — without recompiling or re-running the workload bodies.
 * Every row replays ONE capture deterministically, so its counters
 * are exact and pinned in bench/baselines.json like any figure row.
 *
 * Replay is a timing replay (docs/BENCHMARKS.md). The counter rows
 * are strict: the add body is attempt-invariant (branch-free), so
 * every replay — any detection policy, any geometry — must land all
 * 24000 increments, and on the capture config the counters are
 * bit-identical to the capture run (tests/trace_test.cc pins that).
 * The list rows are determinism pins only: CommList::enqueue
 * branches on the tail it reads, so a capture-time abort can make
 * the recorded (committed) attempt differ from the attempt the
 * capture machine timed first, and the replayed list may diverge
 * from the capture's. What stays guaranteed on any config is that
 * every captured transaction commits exactly once, which is what the
 * list rows validate.
 */

#include "bench_util.h"

#include <map>
#include <optional>

#include "lib/counter.h"
#include "lib/linked_list.h"
#include "rt/machine.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kCounterOps = 24000; // fig09's total
constexpr uint64_t kListOps = 16000;    // fig12-shaped, enqueue-only

uint64_t
opsOf(uint32_t thread, uint32_t threads, uint64_t total)
{
    return total / threads + (thread < total % threads ? 1 : 0);
}

/** Capture config: the Table I CommTM machine (eager) under capture.
 *  All replays of one thread count re-execute this one capture. */
MachineConfig
captureCfg(uint32_t threads)
{
    MachineConfig cfg = machineCfg(SystemMode::CommTm, threads);
    cfg.captureTrace = true;
    return cfg;
}

/** Counter capture, once per thread count (rows share it). */
const Trace &
counterCapture(uint32_t threads)
{
    static std::map<uint32_t, Trace> cache;
    const auto it = cache.find(threads);
    if (it != cache.end())
        return it->second;
    Machine m(captureCfg(threads));
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    for (uint32_t t = 0; t < threads; t++) {
        const uint64_t ops = opsOf(t, threads, kCounterOps);
        m.addThread([&counter, ops](ThreadContext &ctx) {
            for (uint64_t i = 0; i < ops; i++)
                counter.add(ctx, 1);
        });
    }
    m.run();
    Trace &t = cache[threads];
    std::string err;
    if (!TraceReader::parse(m.traceWriter()->serialize(), &t, &err))
        std::fprintf(stderr, "counter capture: %s\n", err.c_str());
    return t;
}

/** Enqueue-only list capture: fig12's structure without its rng
 *  draws, so the captured op stream is a pure function of (config,
 *  thread count) and replayed pointer stores carry capture-time node
 *  addresses (never wild pointers). */
const Trace &
listCapture(uint32_t threads)
{
    static std::map<uint32_t, Trace> cache;
    const auto it = cache.find(threads);
    if (it != cache.end())
        return it->second;
    Machine m(captureCfg(threads));
    const Label label = CommList::defineLabel(m);
    CommList list(m, label, false);
    for (uint32_t t = 0; t < threads; t++) {
        const uint64_t ops = opsOf(t, threads, kListOps);
        m.addThread([&list, t, ops](ThreadContext &ctx) {
            for (uint64_t i = 0; i < ops; i++) {
                list.enqueue(ctx, (uint64_t(t) << 32) | i);
                ctx.compute(8);
            }
        });
    }
    m.run();
    Trace &t = cache[threads];
    std::string err;
    if (!TraceReader::parse(m.traceWriter()->serialize(), &t, &err))
        std::fprintf(stderr, "list capture: %s\n", err.c_str());
    return t;
}

/** Replay @p t on @p cfg; a counter replay must land every add. */
RowResult
replayRow(const Trace &t, const MachineConfig &cfg, bool counter)
{
    Machine m(cfg);
    std::optional<CommCounter> sum;
    if (counter)
        sum.emplace(m, CommCounter::defineLabel(m));
    else
        (void)CommList::defineLabel(m);
    ReplayFrontend fe(t);
    fe.attach(m);
    m.run();
    const StatsSnapshot stats = m.stats();
    if (counter) {
        return rowResult(stats, sum->peek(m) == int64_t(kCounterOps),
                         "counter end-state validation failed");
    }
    // Determinism pin, not a functional pin (file header): check that
    // each captured transaction committed exactly once.
    return rowResult(stats,
                     stats.aggregateThreads().txCommitted == kListOps,
                     "replayed commit count mismatch");
}

} // namespace

// Eager counter rows come first: the @1t eager replay is the family's
// speedup reference.
void
addReplayRows(Registry &reg)
{
    Family &fam = addFamily(reg, "replay", "CommTM @1t", true);
    for (ConflictDetection detection :
         {ConflictDetection::Eager, ConflictDetection::Lazy}) {
        for (uint32_t threads : extendedThreadSweep()) {
            fam.add(rowName(SystemMode::CommTm, threads, detection), [=] {
                return replayRow(
                    counterCapture(threads),
                    machineCfg(SystemMode::CommTm, threads, detection),
                    true);
            });
        }
    }
    for (uint32_t threads : {16, 64, 128, 256}) {
        fam.add("CommTM/small$ @" + std::to_string(threads) + "t", [=] {
            // Half-size caches at every level: the same capture under
            // real eviction pressure (U evictions, writebacks).
            MachineConfig cfg = machineCfg(SystemMode::CommTm, threads);
            cfg.l1SizeKB /= 2;
            cfg.l2SizeKB /= 2;
            cfg.l3SizeKB /= 2;
            return replayRow(counterCapture(threads), cfg, true);
        });
    }
    for (ConflictDetection detection :
         {ConflictDetection::Eager, ConflictDetection::Lazy}) {
        for (uint32_t threads : {1, 8, 32, 128, 256}) {
            std::string row = "list";
            if (detection == ConflictDetection::Lazy)
                row += "/lazy";
            fam.add(row + " @" + std::to_string(threads) + "t", [=] {
                return replayRow(
                    listCapture(threads),
                    machineCfg(SystemMode::CommTm, threads, detection),
                    false);
            });
        }
    }
}

} // namespace benchutil
} // namespace commtm
