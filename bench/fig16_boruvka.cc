/**
 * @file
 * Figs. 16a/17a/18a and 19a: boruvka. Speedup vs. threads, core-cycle
 * and wasted-cycle breakdowns (counters cyc_*, waste_*), and the
 * L2<->L3 GET-request breakdown (counters GETS/GETX/GETU). The paper
 * reports +35% for CommTM at 128 threads, all wasted cycles removed,
 * and 13% fewer L3 GETs.
 */

#include "bench_util.h"

#include "apps/boruvka.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
boruvkaRow(SystemMode mode, uint32_t threads)
{
    BoruvkaConfig cfg;
    cfg.numVertices = 4096;
    const BoruvkaResult r =
        runBoruvka(machineCfg(mode, threads), threads, cfg);
    RowResult row =
        rowResult(r.stats, r.valid(), "MST weight mismatch vs Kruskal");
    row.extra = {{"rounds", double(r.rounds)}};
    return row;
}

} // namespace

void
addBoruvkaRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_boruvka", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : appThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return boruvkaRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
