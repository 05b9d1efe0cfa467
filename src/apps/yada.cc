/**
 * @file
 * yada implementation: worklist-driven refinement over a synthetic
 * deterministic refinement forest. Each root element spans a binary
 * tree of potential refinements; whether an element splits is a pure
 * function of its handle, so the host can walk the same forest and
 * predict the exact element count and quality minimum.
 */

#include "apps/yada.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "lib/comm_queue.h"
#include "lib/counter.h"
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

} // namespace

YadaResult
runYada(const MachineConfig &machine_cfg, uint32_t threads,
        const YadaConfig &cfg)
{
    // Element handles: root r owns node indices [1, stride) of a
    // binary tree; handle = r * stride + node.
    const uint32_t stride = 2u << cfg.maxDepth;
    const uint32_t mesh_size = cfg.initialBad * stride;
    const auto splits = [&](uint64_t handle) {
        const uint32_t node = uint32_t(handle % stride);
        return node < (stride >> 1) &&
               mix(handle ^ cfg.seed) % 100 < cfg.refinePct;
    };
    const auto quality = [&](uint64_t handle) {
        return int64_t(mix(handle * 31 + cfg.seed) % 100000);
    };

    // Host reference: walk the forest the workload will produce.
    uint64_t expected = 0;
    int64_t expected_min = std::numeric_limits<int64_t>::max();
    {
        std::vector<uint64_t> work;
        for (uint32_t r = 0; r < cfg.initialBad; r++)
            work.push_back(uint64_t(r) * stride + 1);
        while (!work.empty()) {
            const uint64_t h = work.back();
            work.pop_back();
            expected++;
            expected_min = std::min(expected_min, quality(h));
            if (splits(h)) {
                const uint64_t node = h % stride;
                const uint64_t root = h / stride;
                work.push_back(root * stride + node * 2);
                work.push_back(root * stride + node * 2 + 1);
            }
        }
    }

    Machine m(machine_cfg);
    const Label queue_label = CommQueue::defineLabel(m);
    const Label add = CommCounter::defineLabel(m);
    const Label mn = m.labels().define(labels::makeMin<int64_t>("MINQ"));
    CommQueue worklist(m, queue_label,
                       machine_cfg.mode == SystemMode::BaselineHtm);
    CommCounter processed_ctr(m, add);
    const Addr min_cell = m.allocator().allocLines(1);
    m.memory().write<int64_t>(min_cell,
                              std::numeric_limits<int64_t>::max());
    const Addr mesh = m.allocator().alloc(mesh_size, kLineSize);

    std::vector<uint64_t> processed(threads, 0), dups(threads, 0);

    for (uint32_t t = 0; t < threads; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            // Seed the worklist with the partitioned roots.
            const uint32_t lo =
                uint32_t(uint64_t(cfg.initialBad) * t / threads);
            const uint32_t hi =
                uint32_t(uint64_t(cfg.initialBad) * (t + 1) / threads);
            for (uint32_t r = lo; r < hi; r++)
                worklist.enqueue(ctx, uint64_t(r) * stride + 1);
            ctx.barrier();

            // Refinement loop. Work stays distributed: tryDequeue
            // consumes the local partial list and steals whole chunks
            // via gathers, but never triggers the full reduction that
            // would collapse every partial list into one reader (and,
            // at high thread counts, NACK-storm every idle sharer). A
            // worker retires after kIdlePolls failed steals with
            // exponential backoff; retirement cannot strand work,
            // because a worker's own local list always satisfies its
            // next tryDequeue — only threads with nothing left retire,
            // and whoever holds the remaining elements drains them.
            constexpr uint32_t kIdlePolls = 8;
            uint32_t idle = 0;
            uint64_t h;
            bool was_dup = false;
            while (idle < kIdlePolls) {
                if (!worklist.tryDequeue(ctx, &h)) {
                    idle++;
                    ctx.compute(Cycle(64) << std::min(idle, 6u));
                    continue;
                }
                idle = 0;
                const int64_t q = quality(h);
                ctx.txRun([&] {
                    was_dup = false;
                    // Cavity reads: this element and its neighbors.
                    const uint8_t mark =
                        ctx.read<uint8_t>(mesh + h);
                    if (h > 0)
                        (void)ctx.read<uint8_t>(mesh + h - 1);
                    if (h + 1 < mesh_size)
                        (void)ctx.read<uint8_t>(mesh + h + 1);
                    if (ctx.txAborted())
                        return; // mark is garbage; txRun retries
                    if (mark != 0) {
                        was_dup = true;
                        return; // already refined (must not happen)
                    }
                    ctx.write<uint8_t>(mesh + h, 1);
                    // Retriangulate: quality stats are commutative.
                    // lint: allow-tx-aborted (labeled min-RMW)
                    const int64_t lo_q =
                        ctx.readLabeled<int64_t>(min_cell, mn);
                    ctx.writeLabeled<int64_t>(min_cell, mn,
                                              std::min(lo_q, q));
                    processed_ctr.add(ctx, 1); // flat-nested
                    ctx.compute(cfg.cavityCost);
                    // New bad elements join the worklist atomically
                    // with the retriangulation (flat nesting).
                    if (splits(h)) {
                        const uint64_t node = h % stride;
                        const uint64_t root = h / stride;
                        worklist.enqueue(ctx,
                                         root * stride + node * 2);
                        worklist.enqueue(
                            ctx, root * stride + node * 2 + 1);
                    }
                });
                if (was_dup)
                    dups[t]++;
                else
                    processed[t]++;
            }
        });
    }

    m.run();

    YadaResult result;
    result.stats = m.stats();
    result.expectedElements = expected;
    result.expectedMinQuality = expected_min;
    for (uint32_t t = 0; t < threads; t++) {
        result.elementsProcessed += processed[t];
        result.duplicates += dups[t];
    }
    result.processedCounter = processed_ctr.peek(m);
    const LineData min_line =
        m.memSys().debugReducedValue(lineAddr(min_cell));
    std::memcpy(&result.minQuality, min_line.data(),
                sizeof(result.minQuality));
    result.queueLeftover = worklist.peekSize(m);
    if (m.commitLog())
        result.commitLog = *m.commitLog();
    return result;
}

} // namespace commtm
