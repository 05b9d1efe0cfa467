/**
 * @file
 * intruder implementation: capture (enqueue fragments), reassembly
 * (shared hash map of per-flow fragment counts), detection (compute +
 * commutative attack counter). Fragment order is irrelevant — exactly
 * the semantic commutativity CommQueue exploits.
 */

#include "apps/intruder.h"

#include <algorithm>
#include <vector>

#include "lib/comm_queue.h"
#include "lib/counter.h"
#include "lib/hash_table.h"
#include "rt/machine.h"

namespace commtm {

namespace {

uint64_t
mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Fragment encoding: flow id, total fragments, fragment index. */
constexpr uint64_t
packFrag(uint32_t flow, uint32_t nfrags, uint32_t idx)
{
    return (uint64_t(flow) << 16) | (uint64_t(nfrags) << 8) | idx;
}

constexpr uint32_t
flowOf(uint64_t frag)
{
    return uint32_t(frag >> 16);
}

constexpr uint32_t
nfragsOf(uint64_t frag)
{
    return uint32_t((frag >> 8) & 0xff);
}

} // namespace

IntruderResult
runIntruder(const MachineConfig &machine_cfg, uint32_t threads,
            const IntruderConfig &cfg)
{
    // Host-side capture: fragment every flow, then shuffle the stream
    // (fragments of different flows interleave, as on a real link).
    assert(cfg.maxFrags >= 1 && cfg.maxFrags <= 255 &&
           "nfrags/idx must fit packFrag's 8-bit fields");
    Rng host_rng(cfg.seed);
    const auto is_attack = [&](uint32_t flow) {
        return mix(flow ^ cfg.seed) % 100 < cfg.attackPct;
    };
    std::vector<uint64_t> stream;
    int64_t expected_attacks = 0;
    for (uint32_t f = 0; f < cfg.numFlows; f++) {
        const uint32_t nfrags =
            1 + uint32_t(host_rng.below(cfg.maxFrags));
        for (uint32_t i = 0; i < nfrags; i++)
            stream.push_back(packFrag(f, nfrags, i));
        if (is_attack(f))
            expected_attacks++;
    }
    for (size_t i = stream.size(); i > 1; i--)
        std::swap(stream[i - 1], stream[host_rng.below(i)]);

    Machine m(machine_cfg);
    const Label queue_label = CommQueue::defineLabel(m);
    const Label bounded = BoundedCounter::defineLabel(m);
    const Label add = CommCounter::defineLabel(m);
    CommQueue queue(m, queue_label,
                    machine_cfg.mode == SystemMode::BaselineHtm);
    ResizableHashMap flows(m, bounded, 256, 1.5);
    CommCounter attacks(m, add);

    std::vector<uint64_t> processed(threads, 0), completed(threads, 0);
    std::vector<int64_t> flagged(threads, 0);

    for (uint32_t t = 0; t < threads; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            // Capture phase: threads partition the fragment stream.
            const size_t lo = stream.size() * t / threads;
            const size_t hi = stream.size() * (t + 1) / threads;
            for (size_t i = lo; i < hi; i++)
                queue.enqueue(ctx, stream[i]);
            ctx.barrier();

            // Reassembly + detection phase: drain the queue. A failed
            // dequeue fell back to a full reduction, so it proves the
            // queue was globally empty — and this phase only consumes.
            uint64_t frag;
            while (queue.dequeue(ctx, &frag)) {
                processed[t]++;
                const uint32_t flow = flowOf(frag);
                const uint32_t nfrags = nfragsOf(frag);
                bool flow_complete = false;
                if (flows.insert(ctx, flow + 1, 1)) {
                    flow_complete = (nfrags == 1);
                } else {
                    flows.updateWith(ctx, flow + 1, [&](uint64_t &c) {
                        c++;
                        flow_complete = (c == nfrags);
                        return true;
                    });
                }
                ctx.compute(8); // header decode
                if (!flow_complete)
                    continue;
                completed[t]++;
                ctx.compute(cfg.detectCost); // signature scan
                if (is_attack(flow)) {
                    attacks.add(ctx, 1);
                    flagged[t]++;
                }
            }
        });
    }

    m.run();

    IntruderResult result;
    result.stats = m.stats();
    result.fragmentsSent = stream.size();
    result.expectedFlows = cfg.numFlows;
    result.expectedAttacks = expected_attacks;
    for (uint32_t t = 0; t < threads; t++) {
        result.fragmentsProcessed += processed[t];
        result.flowsCompleted += completed[t];
        result.attacksFlagged += flagged[t];
    }
    result.attacksDetected = attacks.peek(m);
    result.queueLeftover = queue.peekSize(m);
    if (m.commitLog())
        result.commitLog = *m.commitLog();
    return result;
}

} // namespace commtm
