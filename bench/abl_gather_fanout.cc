/**
 * @file
 * Ablation: subset gathers — the paper's future-work enhancement of
 * load_gather to "query a subset of sharers" (Sec. IV). The directory
 * forwards split requests to only the N sharers nearest the requester.
 * Smaller fanouts cut per-gather latency and split conflicts but lower
 * the yield per gather (more gathers and reduction fallbacks); the
 * sweep maps that tradeoff on the gather-heavy workloads.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint32_t kThreads = 64;

/** Register one workload's fanout sweep; @p run simulates one point. */
void
addFanoutFamily(Registry &reg, const char *name,
                MicroResult (*run)(const MachineConfig &))
{
    Family &fam = addFamily(reg, name, "all sharers (paper)", false);
    for (uint32_t fanout : {0, 4, 16, 48}) {
        const std::string label = fanout == 0
                                      ? "all sharers (paper)"
                                      : "fanout " + std::to_string(fanout);
        fam.add(label, [=] {
            MachineConfig cfg = machineCfg(SystemMode::CommTm);
            cfg.gatherFanoutLimit = fanout;
            const MicroResult r = run(cfg);
            RowResult row =
                rowResult(r.stats, r.valid, "workload validation failed");
            row.extra = {{"fanout", double(fanout)}};
            return row;
        });
    }
}

} // namespace

void
addGatherFanoutRows(Registry &reg)
{
    addFanoutFamily(reg, "abl_fanout_refcount",
                    [](const MachineConfig &cfg) {
                        return runRefcountMicro(cfg, kThreads, 64000);
                    });
    addFanoutFamily(reg, "abl_fanout_list", [](const MachineConfig &cfg) {
        return runListMicro(cfg, kThreads, 32000, 50, 16);
    });
}

} // namespace benchutil
} // namespace commtm
