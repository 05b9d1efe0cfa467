/**
 * @file
 * Open-loop list service: seeded arrival streams of 70/30
 * enqueue/dequeue requests against 8 shared lists picked by a
 * Zipfian(0.99) key (docs/BENCHMARKS.md, "Open-loop service rows").
 * The hot list is where baseline HTM tails blow up: every
 * enqueue/dequeue conflicts on the head/tail lines, while CommTM's
 * partial-list descriptors commute until a dequeue actually needs a
 * gather.
 */

#include "svc_util.h"

#include <memory>

#include "lib/linked_list.h"
#include "rt/machine.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint64_t kLists = 8;
constexpr uint32_t kEnqueuePct = 70;
constexpr uint64_t kRequestWork = 48;   // non-tx cycles per request
constexpr double kServiceCycles = 300;  // nominal uncontended latency

RowResult
runSvcList(SystemMode mode, ConflictDetection det, uint32_t arrival,
           uint32_t threads)
{
    Machine m(machineCfg(mode, threads, det));
    const Label label = CommList::defineLabel(m);
    std::vector<std::unique_ptr<CommList>> lists;
    for (uint64_t l = 0; l < kLists; l++) {
        lists.push_back(std::make_unique<CommList>(
            m, label, mode == SystemMode::BaselineHtm));
    }

    // Host-side tallies, one slot per thread (fibers interleave
    // cooperatively, so unsynchronized per-slot writes are safe).
    std::vector<int64_t> net(threads, 0);
    std::vector<uint64_t> seq(threads, 0);

    const OpenLoopConfig cfg =
        svcConfig(arrival, kServiceCycles, kLists);
    OpenLoopFrontend fe(
        cfg, threads, [&](ThreadContext &ctx, uint64_t key) {
            ctx.compute(kRequestWork);
            const uint32_t t = ctx.id();
            if (ctx.rng().below(100) < kEnqueuePct) {
                lists[key]->enqueue(ctx,
                                    (uint64_t(t) << 32) | seq[t]++);
                net[t]++;
            } else {
                uint64_t value;
                if (lists[key]->dequeue(ctx, &value))
                    net[t]--;
            }
        });
    fe.attach(m);
    m.run();

    int64_t remaining = 0;
    for (const auto &list : lists)
        remaining += int64_t(list->peekSize(m));
    int64_t expected = 0;
    for (uint32_t t = 0; t < threads; t++)
        expected += net[t];
    return svcResult(m, fe, remaining == expected,
                     "list service validation failed");
}

} // namespace

void
addSvcListRows(Registry &reg)
{
    addSvcFamily(reg, "svc_list", runSvcList);
}

} // namespace benchutil
} // namespace commtm
