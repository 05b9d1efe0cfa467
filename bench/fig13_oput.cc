/**
 * @file
 * Fig. 13: speedup of the ordered-put (priority update) microbenchmark:
 * random 64-bit key-value pairs replace the stored pair when the new
 * key is lower. The baseline scales partially (only smaller keys cause
 * conflicting writes); CommTM scales near-linearly.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kTotalOps = 24000; // paper: 10M, scaled

RowResult
oputRow(SystemMode mode, uint32_t threads)
{
    const MicroResult r =
        runOputMicro(machineCfg(mode, threads), threads, kTotalOps);
    return rowResult(r.stats, r.valid, "ordered-put validation failed");
}

} // namespace

void
addFig13Rows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig13", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : threadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return oputRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
