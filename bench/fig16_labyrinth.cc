/**
 * @file
 * labyrinth (STAMP port beyond the paper's five applications): grid
 * routing with all-or-nothing path claims on a GridClaim table. On the
 * baseline HTM every claim transaction conflicts at cache-line
 * granularity (64 cells per line); GridClaim's per-cell tokens make
 * claims of different cells commute, so only true cell overlaps
 * serialize. Each system runs under both eager and lazy conflict
 * detection; all rows carry checked-in exact-counter baselines.
 */

#include "bench_util.h"

#include "apps/labyrinth.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
labyrinthRow(SystemMode mode, ConflictDetection detection, uint32_t threads)
{
    LabyrinthConfig cfg;
    cfg.width = 128; // scaled down from STAMP's 512x512 maze (see docs)
    cfg.height = 128;
    cfg.numPaths = 1024;
    cfg.maxDisp = 8; // short routes: the grid stays undersubscribed
    const LabyrinthResult r =
        runLabyrinth(machineCfg(mode, threads, detection), threads, cfg);
    RowResult row = rowResult(r.stats, r.valid(),
                              "labyrinth token/overlap mismatch");
    row.extra = {{"routed", double(r.pathsRouted)},
                 {"cells", double(r.cellsClaimed)}};
    return row;
}

} // namespace

void
addLabyrinthRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_labyrinth", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (ConflictDetection detection :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            for (uint32_t threads : {1, 32, 128})
                fam.add(rowName(mode, threads, detection), [=] {
                    return labyrinthRow(mode, detection, threads);
                });
        }
    }
}

} // namespace benchutil
} // namespace commtm
