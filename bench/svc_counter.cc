/**
 * @file
 * Open-loop counter service: each thread serves a seeded arrival
 * stream of increments against 16 shared counters picked by a
 * Zipfian(0.99) key, reporting enqueue-to-commit latency quantiles
 * (docs/BENCHMARKS.md, "Open-loop service rows"). Under the baseline
 * HTM the hot counters serialize, queueing delay compounds, and p99
 * explodes; CommTM's commutative adds keep the tail near the
 * uncontended service time even through the burst rows.
 */

#include "svc_util.h"

#include <memory>

#include "lib/counter.h"
#include "rt/machine.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kCounters = 16;
constexpr uint64_t kRequestWork = 48;   // non-tx cycles per request
constexpr double kServiceCycles = 100;  // nominal uncontended latency

RowResult
runSvcCounter(SystemMode mode, ConflictDetection det, uint32_t arrival,
              uint32_t threads)
{
    Machine m(machineCfg(mode, threads, det));
    const Label add = CommCounter::defineLabel(m);
    std::vector<std::unique_ptr<CommCounter>> counters;
    for (uint64_t c = 0; c < kCounters; c++)
        counters.push_back(std::make_unique<CommCounter>(m, add));

    const OpenLoopConfig cfg =
        svcConfig(arrival, kServiceCycles, kCounters);
    OpenLoopFrontend fe(cfg, threads,
                        [&](ThreadContext &ctx, uint64_t key) {
                            ctx.compute(kRequestWork);
                            counters[key]->add(ctx, 1);
                        });
    fe.attach(m);
    m.run();

    int64_t sum = 0;
    for (const auto &counter : counters)
        sum += counter->peek(m);
    return svcResult(m, fe, sum == int64_t(fe.totalService().completed),
                     "counter service validation failed");
}

} // namespace

void
addSvcCounterRows(Registry &reg)
{
    addSvcFamily(reg, "svc_counter", runSvcCounter);
}

} // namespace benchutil
} // namespace commtm
