/**
 * @file
 * intruder (STAMP port beyond the paper's five applications): packet
 * reassembly driven by a shared CommQueue. The queue descriptor is
 * the contended structure — every capture-phase enqueue and every
 * reassembly-phase dequeue goes through it — so the baseline HTM
 * serializes on it while CommTM keeps per-core partial queues and
 * moves whole chunks with gathers. Each system runs under both eager
 * and lazy (TCC/Bulk-style) conflict detection; all rows carry
 * checked-in exact-counter baselines.
 */

#include "bench_util.h"

#include "apps/intruder.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
intruderRow(SystemMode mode, ConflictDetection detection, uint32_t threads)
{
    IntruderConfig cfg;
    cfg.numFlows = 1024; // scaled down from STAMP's stream (see docs)
    cfg.maxFrags = 8;
    const IntruderResult r =
        runIntruder(machineCfg(mode, threads, detection), threads, cfg);
    RowResult row = rowResult(r.stats, r.valid(),
                              "intruder reassembly/detection mismatch");
    row.extra = {{"flows", double(r.flowsCompleted)},
                 {"attacks", double(r.attacksDetected)}};
    return row;
}

} // namespace

void
addIntruderRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_intruder", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (ConflictDetection detection :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            for (uint32_t threads : {1, 32, 128})
                fam.add(rowName(mode, threads, detection), [=] {
                    return intruderRow(mode, detection, threads);
                });
        }
    }
}

} // namespace benchutil
} // namespace commtm
