/**
 * @file
 * Shared shape of the open-loop service benches (svc_counter,
 * svc_list, svc_topk; docs/BENCHMARKS.md, "Open-loop service rows").
 * Each family sweeps {Baseline, CommTM} x {eager, lazy} x arrival
 * discipline at 64-256 threads (addSvcFamily); the arrival dimension
 * is an index into svcArrivals(): two Poisson points at 50% and 90% of the
 * bench's nominal per-thread service rate, and one on-off burst
 * point whose ON phases spike to 8x the base rate (2x on average) —
 * the contention-spike shape the tail-latency claim is about.
 */

#ifndef COMMTM_BENCH_SVC_UTIL_H
#define COMMTM_BENCH_SVC_UTIL_H

#include "bench_util.h"

#include "rt/machine.h"
#include "rt/open_loop.h"

namespace commtm {
namespace benchutil {

/** One point of the arrival sweep. loadPct scales the base rate
 *  against the bench's nominal service time. */
struct SvcArrival {
    const char *tag;
    ArrivalPattern::Kind kind;
    uint32_t loadPct;
};

inline const std::vector<SvcArrival> &
svcArrivals()
{
    static const std::vector<SvcArrival> sweep = {
        {"ld50", ArrivalPattern::Kind::Poisson, 50},
        {"ld90", ArrivalPattern::Kind::Poisson, 90},
        {"burst", ArrivalPattern::Kind::Bursty, 50},
    };
    return sweep;
}

/**
 * Arrival pattern for sweep point @p index, rated against
 * @p service_cycles (the bench's nominal uncontended per-request
 * service time). Burst phases average 16 arrivals ON (at 8x the base
 * rate) followed by a 6x-gap OFF silence.
 */
inline ArrivalPattern
svcPattern(uint32_t index, double service_cycles)
{
    const SvcArrival &point = svcArrivals()[index];
    ArrivalPattern pattern;
    pattern.kind = point.kind;
    pattern.meanGap = service_cycles * 100.0 / double(point.loadPct);
    pattern.burstFactor = 8.0;
    pattern.onMean = 2.0 * pattern.meanGap;
    pattern.offMean = 6.0 * pattern.meanGap;
    return pattern;
}

/** Row label: "CommTM/lazy burst @256t" — the baseline file keys on
 *  these, like rowName() for the closed-loop rows. */
inline std::string
svcRowName(SystemMode mode, ConflictDetection detection,
           uint32_t arrival_index, uint32_t threads)
{
    std::string row = modeName(mode);
    if (detection == ConflictDetection::Lazy)
        row += "/lazy";
    row += std::string(" ") + svcArrivals()[arrival_index].tag;
    return row + " @" + std::to_string(threads) + "t";
}

/** Thread counts of the service sweep: the high-contention end the
 *  tail-latency story is about. */
inline const std::vector<uint32_t> &
svcThreadSweep()
{
    static const std::vector<uint32_t> sweep = {64, 128, 256};
    return sweep;
}

/** Shared open-loop window shape of every service bench. */
inline OpenLoopConfig
svcConfig(uint32_t arrival_index, double service_cycles,
          uint64_t zipf_items)
{
    OpenLoopConfig cfg;
    cfg.pattern = svcPattern(arrival_index, service_cycles);
    cfg.arrivalsPerThread = 48;
    cfg.warmupPerThread = 8;
    cfg.queueDepth = 16;
    cfg.zipfItems = zipf_items;
    cfg.zipfS = 0.99;
    return cfg;
}

/** One service row's run: simulate (mode, detection, arrival point,
 *  threads). */
using SvcRun = RowResult (*)(SystemMode, ConflictDetection, uint32_t,
                             uint32_t);

/**
 * Register the standard service sweep as family @p name:
 * {Baseline, CommTM} x {eager, lazy} x arrival x threads, with
 * Baseline/eager/ld50/64t the family's speedup reference.
 */
inline void
addSvcFamily(Registry &reg, const char *name, SvcRun run)
{
    Family &fam = addFamily(reg, name, "Baseline ld50 @64t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (ConflictDetection det :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            for (uint32_t arrival = 0; arrival < svcArrivals().size();
                 arrival++) {
                for (uint32_t threads : svcThreadSweep()) {
                    fam.add(svcRowName(mode, det, arrival, threads), [=] {
                        return run(mode, det, arrival, threads);
                    });
                }
            }
        }
    }
}

/** RowResult of a service run on @p m behind @p fe, failing with
 *  @p what unless @p valid. */
inline RowResult
svcResult(const Machine &m, const OpenLoopFrontend &fe, bool valid,
          const char *what)
{
    RowResult r = rowResult(m.stats(), valid, what);
    r.service = Service{fe.mergedMeasure(), fe.totalService()};
    return r;
}

} // namespace benchutil
} // namespace commtm

#endif // COMMTM_BENCH_SVC_UTIL_H
