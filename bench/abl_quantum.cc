/**
 * @file
 * Ablation: timing-model sensitivity to the scheduling quantum (the
 * interleaving granularity of the simulator, docs/ARCHITECTURE.md
 * Sec. 2.1 — zsim's bound-phase analog). If the reported speedups were
 * artifacts of the interleaving granularity, they would move with the
 * quantum;
 * stable results across two orders of magnitude validate the model.
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
addQuantumRows(Registry &reg)
{
    Family &fam =
        addFamily(reg, "abl_quantum", "Baseline quantum=10", false);
    for (Cycle quantum : {10, 100, 1000}) {
        for (SystemMode mode :
             {SystemMode::BaselineHtm, SystemMode::CommTm}) {
            const std::string label = std::string(modeName(mode)) +
                                      " quantum=" +
                                      std::to_string(quantum);
            fam.add(label, [=] {
                MachineConfig cfg = machineCfg(mode);
                cfg.schedQuantum = quantum;
                const MicroResult r =
                    runCounterMicro(cfg, kThreads, kTotalOps);
                RowResult row = rowResult(r.stats, r.valid,
                                          "counter validation failed");
                row.extra = {{"quantum", double(quantum)}};
                return row;
            });
        }
    }
}

} // namespace benchutil
} // namespace commtm
