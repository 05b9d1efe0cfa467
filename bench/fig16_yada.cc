/**
 * @file
 * yada (STAMP port beyond the paper's five applications): worklist-
 * driven mesh refinement over a CommQueue. The worklist is both
 * producer and consumer hot — every refinement dequeues one element
 * and enqueues its children — so the baseline HTM serializes on the
 * queue descriptor while CommTM keeps the worklist per-core and
 * steals whole chunks via gathers only when a worker runs dry. Each
 * system runs under both eager and lazy conflict detection; all rows
 * carry checked-in exact-counter baselines.
 */

#include "bench_util.h"

#include "apps/yada.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
yadaRow(SystemMode mode, ConflictDetection detection, uint32_t threads)
{
    YadaConfig cfg;
    cfg.initialBad = 512; // scaled down from STAMP's ttimeu inputs
    cfg.maxDepth = 6;
    cfg.cavityCost = 96;
    const YadaResult r =
        runYada(machineCfg(mode, threads, detection), threads, cfg);
    RowResult row =
        rowResult(r.stats, r.valid(), "yada refinement mismatch");
    row.extra = {{"elements", double(r.elementsProcessed)}};
    return row;
}

} // namespace

void
addYadaRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_yada", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (ConflictDetection detection :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            for (uint32_t threads : {1, 32, 128})
                fam.add(rowName(mode, threads, detection), [=] {
                    return yadaRow(mode, detection, threads);
                });
        }
    }
}

} // namespace benchutil
} // namespace commtm
