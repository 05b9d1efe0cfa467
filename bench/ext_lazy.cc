/**
 * @file
 * Extension: lazy (commit-time) conflict detection — Sec. III-D argues
 * CommTM "applies to HTMs with lazy conflict detection, such as TCC or
 * Bulk". This bench crosses detection scheme x system on the counter
 * and kmeans workloads: CommTM's commutative updates avoid conflicts
 * under either detection scheme, while conventional HTMs serialize
 * under both.
 */

#include "bench_util.h"

#include "apps/kmeans.h"
#include "apps/micro.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint32_t kThreads = 64;

/** Register one workload's {system} x {detection} family; @p run
 *  simulates one point. */
void
addLazyFamily(Registry &reg, const char *name,
              RowResult (*run)(const MachineConfig &))
{
    Family &fam = addFamily(reg, name, "Baseline / eager", false);
    for (SystemMode mode : {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (ConflictDetection detection :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            const std::string label =
                std::string(modeName(mode)) + " / " +
                (detection == ConflictDetection::Eager ? "eager"
                                                       : "lazy");
            fam.add(label, [=] {
                return run(machineCfg(mode, 0, detection));
            });
        }
    }
}

} // namespace

void
addExtLazyRows(Registry &reg)
{
    addLazyFamily(reg, "ext_lazy_counter", [](const MachineConfig &cfg) {
        const MicroResult r = runCounterMicro(cfg, kThreads, 12000);
        return rowResult(r.stats, r.valid, "counter validation failed");
    });
    addLazyFamily(reg, "ext_lazy_kmeans", [](const MachineConfig &cfg) {
        KmeansConfig km;
        km.numPoints = 1024;
        km.maxIters = 3;
        const KmeansResult r = runKmeans(cfg, kThreads, km);
        return rowResult(r.stats, r.valid(km.numPoints),
                         "kmeans population mismatch");
    });
}

} // namespace benchutil
} // namespace commtm
