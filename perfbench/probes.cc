/**
 * @file
 * Layer probes. Each probe builds its own Machine (so the workload's
 * counters never see probe traffic), warms the state it measures, and
 * reports the median over kBatches timed batches.
 */

#include "probes.h"

#include <algorithm>
#include <memory>

#include "lib/counter.h"
#include "mem/coherence.h"
#include "pass.h"
#include "rt/machine.h"
#include "sim/fiber.h"
#include "trace/trace_reader.h"

namespace perfbench {

using namespace commtm;

namespace {

constexpr int kBatches = 7;

/** Where probes publish their accumulated latencies, so no timed
 *  call can be treated as dead code. */
volatile Cycle g_published = 0;

void
keep(Cycle sink)
{
    g_published = sink;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over kBatches runs of @p batch, in host ns per op (one
 *  batch performs @p ops operations). */
template <typename Fn>
double
nsPerOp(uint64_t ops, Fn &&batch)
{
    std::vector<double> samples;
    for (int b = 0; b < kBatches; b++) {
        const double start = nowSeconds();
        batch();
        samples.push_back((nowSeconds() - start) * 1e9 / double(ops));
    }
    return median(samples);
}

Access
request(CoreId core, Addr addr, MemOp op, Label label = kNoLabel)
{
    Access a;
    a.core = core;
    a.addr = addr;
    a.op = op;
    a.label = label;
    return a;
}

/** Loads that hit core 0's private L1. */
double
probeHit(const MachineConfig &cfg, uint64_t ops)
{
    constexpr uint64_t kLines = 64;
    Machine m(cfg);
    MemorySystem &mem = m.memSys();
    const Addr base = m.allocator().allocLines(kLines);
    Cycle sink = 0;
    for (uint64_t l = 0; l < kLines; l++)
        sink += mem.access(request(0, base + l * kLineSize, MemOp::Load))
                    .latency;
    const double ns = nsPerOp(ops, [&] {
        for (uint64_t i = 0; i < ops; i++) {
            const Addr addr = base + (i % kLines) * kLineSize;
            sink += mem.access(request(0, addr, MemOp::Load)).latency;
        }
    });
    keep(sink);
    return ns;
}

/** Loads over a footprint four times the L2: L1/L2 misses that hit
 *  the L3 once the first sweep has filled it. */
double
probeMiss(const MachineConfig &cfg, uint64_t ops)
{
    const uint64_t lines = uint64_t(cfg.l2Lines()) * 4;
    Machine m(cfg);
    MemorySystem &mem = m.memSys();
    const Addr base = m.allocator().allocLines(lines);
    uint64_t next = 0;
    const auto load = [&] {
        const Addr addr = base + (next++ % lines) * kLineSize;
        return mem.access(request(0, addr, MemOp::Load)).latency;
    };
    Cycle sink = 0;
    for (uint64_t l = 0; l < lines; l++)
        sink += load();
    const double ns = nsPerOp(ops, [&] {
        for (uint64_t i = 0; i < ops; i++)
            sink += load();
    });
    keep(sink);
    return ns;
}

/** Stores to one line alternating between two cores on different
 *  tiles: every store is a GETX that invalidates the other copy. */
double
probePingpong(const MachineConfig &cfg, uint64_t ops)
{
    Machine m(cfg);
    MemorySystem &mem = m.memSys();
    const Addr line = m.allocator().allocLines(1);
    Cycle sink = 0;
    const double ns = nsPerOp(ops, [&] {
        for (uint64_t i = 0; i < ops; i++)
            sink += mem.access(request(CoreId(i & 1), line, MemOp::Store))
                        .latency;
    });
    keep(sink);
    return ns;
}

/** Every core does a labeled store to one line (GETU, then U hits),
 *  then core 0 loads it, which reduces all partial copies. Reported
 *  per access. */
double
probeLabeled(const MachineConfig &cfg, uint64_t rounds)
{
    Machine m(cfg);
    const Label add = CommCounter::defineLabel(m);
    MemorySystem &mem = m.memSys();
    const Addr line = m.allocator().allocLines(1);
    const uint64_t per_round = uint64_t(cfg.numCores) + 1;
    Cycle sink = 0;
    const double ns = nsPerOp(rounds * per_round, [&] {
        for (uint64_t r = 0; r < rounds; r++) {
            for (CoreId c = 0; c < cfg.numCores; c++) {
                sink += mem.access(request(c, line, MemOp::LabeledStore,
                                           add))
                            .latency;
            }
            sink += mem.access(request(0, line, MemOp::Load)).latency;
        }
    });
    keep(sink);
    return ns;
}

/** HtmManager::beginAttempt + abortAttempt on one core. */
double
probeBeginAbort(const MachineConfig &cfg, uint64_t ops)
{
    Machine m(cfg);
    HtmManager &htm = m.htm();
    Rng rng(cfg.seed);
    Cycle sink = 0;
    const double ns = nsPerOp(ops, [&] {
        for (uint64_t i = 0; i < ops; i++) {
            htm.beginAttempt(0);
            sink += htm.abortAttempt(0, AbortCause::Explicit, rng);
        }
    });
    htm.finish(0);
    keep(sink);
    return ns;
}

/** HtmManager::beginAttempt + commit + finish of an empty
 *  transaction on one core. */
double
probeBeginCommit(const MachineConfig &cfg, uint64_t ops)
{
    Machine m(cfg);
    HtmManager &htm = m.htm();
    Cycle sink = 0;
    const double ns = nsPerOp(ops, [&] {
        for (uint64_t i = 0; i < ops; i++) {
            htm.beginAttempt(0);
            sink += htm.commit(0);
            htm.finish(0);
        }
    });
    keep(sink);
    return ns;
}

/** One Fiber::resume / Fiber::yield round trip. */
double
probeFiberSwitch(uint64_t ops)
{
    bool stop = false;
    std::unique_ptr<Fiber> fiber;
    fiber = std::make_unique<Fiber>([&] {
        while (!stop)
            fiber->yield();
    });
    const double ns = nsPerOp(ops, [&] {
        for (uint64_t i = 0; i < ops; i++)
            fiber->resume();
    });
    stop = true;
    fiber->resume();
    return ns;
}

/** Machine construction, in ms (destruction untimed). */
double
probeMachineCtor(const MachineConfig &cfg)
{
    std::vector<double> samples;
    for (int b = 0; b < kBatches; b++) {
        const double start = nowSeconds();
        auto m = std::make_unique<Machine>(cfg);
        samples.push_back((nowSeconds() - start) * 1e3);
    }
    return median(samples);
}

/**
 * Scheduler resumes: threads that only compute() twice the scheduling
 * quantum per call. Each call overshoots the yield threshold, so
 * every thread is resumed once per call plus once to finish: the
 * resume count is threads * (calls + 1) by construction.
 */
double
probeResume(const MachineConfig &cfg, uint64_t calls)
{
    const uint32_t threads = std::min<uint32_t>(cfg.numCores, 64);
    const uint64_t resumes = uint64_t(threads) * (calls + 1);
    std::vector<double> samples;
    for (int b = 0; b < kBatches; b++) {
        Machine m(cfg);
        for (uint32_t t = 0; t < threads; t++) {
            m.addThread([&cfg, calls](ThreadContext &ctx) {
                for (uint64_t i = 0; i < calls; i++)
                    ctx.compute(2 * cfg.schedQuantum);
            });
        }
        const double start = nowSeconds();
        m.run();
        samples.push_back((nowSeconds() - start) * 1e9 /
                          double(resumes));
    }
    return median(samples);
}

/** TraceReader::parse throughput on a fixed counter capture, MB/s. */
double
probeParse(const MachineConfig &geometry, uint64_t parses)
{
    constexpr uint32_t kThreads = 32;
    constexpr uint64_t kAdds = 200;
    MachineConfig cfg = geometry;
    cfg.captureTrace = true;
    Machine m(cfg);
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    for (uint32_t t = 0; t < kThreads; t++) {
        m.addThread([&counter](ThreadContext &ctx) {
            for (uint64_t i = 0; i < kAdds; i++)
                counter.add(ctx, 1);
        });
    }
    m.run();
    const std::vector<uint8_t> bytes = m.traceWriter()->serialize();
    std::vector<double> samples;
    for (int b = 0; b < kBatches; b++) {
        const double start = nowSeconds();
        for (uint64_t i = 0; i < parses; i++) {
            Trace t;
            std::string err;
            TraceReader::parse(bytes, &t, &err);
        }
        samples.push_back(double(bytes.size()) * double(parses) / 1e6 /
                          (nowSeconds() - start));
    }
    return median(samples);
}

} // namespace

std::vector<ProbeResult>
runProbes(const MachineConfig &geometry, bool small)
{
    const uint64_t k = small ? 20 : 1;
    return {
        {"mem.hit_ns", probeHit(geometry, 1000000 / k), "ns"},
        {"mem.miss_ns", probeMiss(geometry, 200000 / k), "ns"},
        {"mem.pingpong_ns", probePingpong(geometry, 200000 / k), "ns"},
        {"mem.labeled_ns", probeLabeled(geometry, 100 / k + 1), "ns"},
        {"htm.begin_abort_ns", probeBeginAbort(geometry, 1000000 / k),
         "ns"},
        {"htm.begin_commit_ns", probeBeginCommit(geometry, 1000000 / k),
         "ns"},
        {"sim.fiber_switch_ns", probeFiberSwitch(300000 / k), "ns"},
        {"rt.machine_ctor_ms", probeMachineCtor(geometry), "ms"},
        {"rt.resume_ns", probeResume(geometry, 2000 / k), "ns"},
        {"trace.parse_MBps", probeParse(geometry, 20 / k + 1), "MB/s"},
    };
}

} // namespace perfbench
