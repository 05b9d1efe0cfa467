/**
 * @file
 * Figs. 16b/17b/18b and 19b: kmeans. The paper's strongest result:
 * commutative FP-ADD centroid updates give CommTM 3.4x over the
 * baseline at 128 threads, 25x fewer wasted cycles, and 45% fewer
 * L3 GET requests.
 */

#include "bench_util.h"

#include "apps/kmeans.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
kmeansRow(SystemMode mode, uint32_t threads)
{
    KmeansConfig cfg;
    cfg.numPoints = 2048;
    cfg.maxIters = 4;
    const KmeansResult r =
        runKmeans(machineCfg(mode, threads), threads, cfg);
    RowResult row = rowResult(r.stats, r.valid(cfg.numPoints),
                              "kmeans population mismatch");
    row.extra = {{"iterations", double(r.iterations)}};
    return row;
}

} // namespace

void
addKmeansRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_kmeans", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : appThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return kmeansRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
