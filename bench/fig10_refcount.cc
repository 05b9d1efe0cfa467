/**
 * @file
 * Fig. 10: speedup of the reference-counting microbenchmark (bounded
 * non-negative counters, Sec. IV). Three systems, as in the paper:
 * baseline HTM, CommTM without gather requests (frequent reductions
 * serialize once local values hit zero), and CommTM with gathers.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

// The paper runs 1M references; the scaled run must still be large
// enough that steady-state gather behavior (not the cold-start burst)
// dominates at 128 threads: >= ~60 ops per (thread, object) pair.
constexpr uint64_t kTotalOps = 128000;
constexpr uint32_t kObjects = 16;

RowResult
refcountRow(SystemMode mode, uint32_t threads)
{
    const MicroResult r = runRefcountMicro(machineCfg(mode, threads),
                                           threads, kTotalOps, kObjects);
    return rowResult(r.stats, r.valid, "refcount validation failed");
}

} // namespace

void
addFig10Rows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig10", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm,
                            SystemMode::CommTmNoGather,
                            SystemMode::CommTm}) {
        for (uint32_t threads : threadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return refcountRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
