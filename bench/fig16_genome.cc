/**
 * @file
 * Figs. 16d/17d/18d: genome. The resizable hash table's remaining-space
 * counter (bounded ADD with gather) dominates: the paper reports 3.0x
 * for CommTM at 128 threads and 8.3x fewer wasted cycles. The
 * no-gather configuration is included to show gathers matter here
 * (genome is one of the two gather-using applications, Table II).
 */

#include "bench_util.h"

#include "apps/genome.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
genomeRow(SystemMode mode, uint32_t threads)
{
    GenomeConfig cfg;
    cfg.genomeLength = 8192;
    cfg.numSegments = 16384;
    const GenomeResult r =
        runGenome(machineCfg(mode, threads), threads, cfg);
    RowResult row =
        rowResult(r.stats, r.valid(), "genome dedup/link mismatch");
    row.extra = {{"resizes", double(r.tableResizes)}};
    return row;
}

} // namespace

void
addGenomeRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_genome", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm,
                            SystemMode::CommTmNoGather,
                            SystemMode::CommTm}) {
        for (uint32_t threads : appThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return genomeRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
