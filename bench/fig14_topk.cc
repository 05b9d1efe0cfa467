/**
 * @file
 * Fig. 14: speedup of top-K insertion (K = 1000). The baseline
 * serializes on superfluous read-write dependences through the global
 * heap; CommTM builds per-core heaps that merge on reads.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kTotalOps = 48000; // paper: 10M inserts, scaled
constexpr uint32_t kK = 100; // paper: K=1000; K and ops scaled together

RowResult
topkRow(SystemMode mode, uint32_t threads)
{
    const MicroResult r =
        runTopkMicro(machineCfg(mode, threads), threads, kTotalOps, kK);
    return rowResult(r.stats, r.valid, "top-K validation failed");
}

} // namespace

void
addFig14Rows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig14", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : threadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return topkRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
