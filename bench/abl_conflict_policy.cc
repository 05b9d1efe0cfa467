/**
 * @file
 * Ablation: conflict-resolution policy. The paper's baseline resolves
 * conflicts by timestamp (older wins, NACKs), which avoids the classic
 * eager-HTM pathologies (Sec. III-B1). This ablation compares it with
 * requester-wins on the highly contended counter and mixed-list
 * workloads, for both the baseline HTM and CommTM.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kTotalOps = 8000;
constexpr uint32_t kThreads = 32;

MachineConfig
cfgWith(SystemMode mode, ConflictPolicy policy)
{
    MachineConfig cfg = machineCfg(mode);
    cfg.conflictPolicy = policy;
    return cfg;
}

/** Register one workload's {system} x {policy} family; @p run
 *  simulates one point. */
void
addPolicyFamily(Registry &reg, const char *name,
                MicroResult (*run)(const MachineConfig &))
{
    Family &fam = addFamily(reg, name, "Baseline / timestamp", false);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (ConflictPolicy policy : {ConflictPolicy::TimestampOlderWins,
                                      ConflictPolicy::RequesterWins}) {
            const std::string label =
                std::string(modeName(mode)) + " / " +
                (policy == ConflictPolicy::TimestampOlderWins
                     ? "timestamp"
                     : "requester-wins");
            fam.add(label, [=] {
                const MicroResult r = run(cfgWith(mode, policy));
                return rowResult(r.stats, r.valid,
                                 "workload validation failed");
            });
        }
    }
}

} // namespace

void
addConflictPolicyRows(Registry &reg)
{
    addPolicyFamily(reg, "abl_policy_counter",
                    [](const MachineConfig &cfg) {
                        return runCounterMicro(cfg, kThreads, kTotalOps);
                    });
    addPolicyFamily(reg, "abl_policy_list", [](const MachineConfig &cfg) {
        return runListMicro(cfg, kThreads, kTotalOps, 50);
    });
}

} // namespace benchutil
} // namespace commtm
