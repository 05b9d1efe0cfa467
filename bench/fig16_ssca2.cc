/**
 * @file
 * Figs. 16c/17c/18c: ssca2. Shared commutative updates are rare, so the
 * paper reports only +0.2% for CommTM — the "commutativity barely
 * matters here" control case. The interesting check is that CommTM does
 * not hurt.
 */

#include "bench_util.h"

#include "apps/ssca2.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
ssca2Row(SystemMode mode, uint32_t threads)
{
    Ssca2Config cfg;
    cfg.scale = 14; // paper: -s16; small scales create artificial contention
    cfg.edgeFactor = 8;
    const Ssca2Result r = runSsca2(machineCfg(mode, threads), threads, cfg);
    return rowResult(r.stats, r.valid(), "ssca2 adjacency inconsistent");
}

} // namespace

void
addSsca2Rows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_ssca2", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (uint32_t threads : appThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return ssca2Row(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
