/**
 * @file
 * Fig. 9: speedup of the counter microbenchmark. Threads perform
 * increments to a single shared counter. The paper's CommTM scales
 * linearly while the baseline HTM serializes all transactions.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kTotalOps = 24000; // paper: 10M, scaled to sim speed

RowResult
counterRow(SystemMode mode, uint32_t threads)
{
    const MicroResult r =
        runCounterMicro(machineCfg(mode, threads), threads, kTotalOps);
    return rowResult(r.stats, r.valid, "counter validation failed");
}

} // namespace

// The sweep runs past the paper's 128-thread machine: the 256t rows
// exercise the scaled mesh geometry and the spilled sharer set.
void
addFig09Rows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig09", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : extendedThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return counterRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
