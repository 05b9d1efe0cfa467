/**
 * @file
 * Fig. 12: speedup of the linked-list microbenchmark. (a) 100%
 * enqueues; (b) 50% enqueues / 50% dequeues, randomly interleaved. The
 * baseline allocates head and tail pointers on separate lines to avoid
 * false sharing (Sec. VI); CommTM uses a single reducible descriptor.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kTotalOps = 64000; // paper: 10M ops, scaled

RowResult
listRow(SystemMode mode, uint32_t threads, uint32_t enqueue_pct)
{
    // The mixed run seeds each thread's local list: the paper's 10M-op
    // run builds this standing buffer on its own (failed dequeues tilt
    // the enqueue/dequeue balance); scaled runs must start from it.
    const uint32_t prefill = enqueue_pct < 100 ? 16 : 0;
    const MicroResult r = runListMicro(machineCfg(mode, threads), threads,
                                       kTotalOps, enqueue_pct, prefill);
    return rowResult(r.stats, r.valid, "list validation failed");
}

void
addListFamily(Registry &reg, const char *family, uint32_t enqueue_pct)
{
    Family &fam = addFamily(reg, family, "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : extendedThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return listRow(mode, threads, enqueue_pct); });
    }
}

} // namespace

// Both sweeps run past the paper's 128-thread machine: the 256t rows
// exercise the scaled mesh geometry and the spilled sharer set.
void
addFig12Rows(Registry &reg)
{
    addListFamily(reg, "fig12a", 100);
    addListFamily(reg, "fig12b", 50);
}

} // namespace benchutil
} // namespace commtm
