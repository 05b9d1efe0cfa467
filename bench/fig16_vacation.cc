/**
 * @file
 * Figs. 16e/17e/18e: vacation. Travel-reservation database over
 * resizable hash tables; the paper reports +45% for CommTM at 128
 * threads and 2.6x fewer wasted cycles. Like genome, vacation uses
 * gathers (Table II), so the no-gather configuration is included.
 */

#include "bench_util.h"

#include "apps/vacation.h"

namespace commtm {
namespace benchutil {
namespace {

RowResult
vacationRow(SystemMode mode, uint32_t threads)
{
    VacationConfig cfg;
    cfg.relations = 2048;
    cfg.numTasks = 6144;
    const VacationResult r =
        runVacation(machineCfg(mode, threads), threads, cfg);
    RowResult row =
        rowResult(r.stats, r.valid(), "vacation inventory not conserved");
    row.extra = {{"reservations", double(r.reservationsMade)}};
    return row;
}

} // namespace

void
addVacationRows(Registry &reg)
{
    Family &fam = addFamily(reg, "fig16_vacation", "Baseline @1t", true);
    for (SystemMode mode : {SystemMode::BaselineHtm,
                            SystemMode::CommTmNoGather,
                            SystemMode::CommTm}) {
        for (uint32_t threads : appThreadSweep())
            fam.add(rowName(mode, threads),
                    [=] { return vacationRow(mode, threads); });
    }
}

} // namespace benchutil
} // namespace commtm
