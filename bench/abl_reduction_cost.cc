/**
 * @file
 * Ablation: reduction-handler cost sensitivity (Sec. III-B4 argues a
 * dedicated shadow thread keeps reductions fast). The reduction-heavy
 * configuration — reference counting on CommTM *without* gathers, where
 * threads whose local value hits zero trigger frequent reductions —
 * runs with increasing per-line reduction costs. CommTM-with-gathers is
 * included at each point to show gathers also insulate against slow
 * reduction hardware.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kTotalOps = 8000;
constexpr uint32_t kThreads = 32;

} // namespace

void
addReductionCostRows(Registry &reg)
{
    Family &fam = addFamily(reg, "abl_reduction_cost",
                            "CommTM-NoGather cost=0", false);
    for (Cycle cost : {0, 8, 64, 512}) {
        for (SystemMode mode :
             {SystemMode::CommTmNoGather, SystemMode::CommTm}) {
            const std::string label = std::string(modeName(mode)) +
                                      " cost=" + std::to_string(cost);
            fam.add(label, [=] {
                MachineConfig cfg = machineCfg(mode);
                cfg.reductionFixedCost = cost;
                const MicroResult r =
                    runRefcountMicro(cfg, kThreads, kTotalOps);
                RowResult row = rowResult(r.stats, r.valid,
                                          "refcount validation failed");
                row.extra = {{"reduction_cost", double(cost)}};
                return row;
            });
        }
    }
}

} // namespace benchutil
} // namespace commtm
