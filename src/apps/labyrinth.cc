/**
 * @file
 * labyrinth implementation: deterministic L-shaped routing over a
 * GridClaim table. Each task tries the horizontal-first bend, then the
 * vertical-first bend; a route succeeds when claimPath takes every
 * cell all-or-nothing.
 */

#include "apps/labyrinth.h"

#include <algorithm>
#include <set>
#include <vector>

#include "lib/comm_queue.h"
#include "lib/grid_claim.h"
#include "rt/machine.h"

namespace commtm {

namespace {

struct Endpoints {
    uint32_t x0, y0, x1, y1;
};

/** Cells of an L-shaped route; the corner cell appears once. */
std::vector<uint32_t>
bendCells(const Endpoints &e, uint32_t width, bool horizontal_first)
{
    std::vector<uint32_t> cells;
    const auto push = [&](uint32_t x, uint32_t y) {
        cells.push_back(y * width + x);
    };
    const auto step = [](uint32_t from, uint32_t to) {
        return from < to ? 1 : -1;
    };
    if (horizontal_first) {
        for (uint32_t x = e.x0; x != e.x1; x += step(e.x0, e.x1))
            push(x, e.y0);
        for (uint32_t y = e.y0; y != e.y1; y += step(e.y0, e.y1))
            push(e.x1, y);
    } else {
        for (uint32_t y = e.y0; y != e.y1; y += step(e.y0, e.y1))
            push(e.x0, y);
        for (uint32_t x = e.x0; x != e.x1; x += step(e.x0, e.x1))
            push(x, e.y1);
    }
    push(e.x1, e.y1);
    return cells;
}

} // namespace

LabyrinthResult
runLabyrinth(const MachineConfig &machine_cfg, uint32_t threads,
             const LabyrinthConfig &cfg)
{
    // Host-side task list: endpoint pairs, distinct per task.
    Rng host_rng(cfg.seed);
    std::vector<Endpoints> tasks(cfg.numPaths);
    const auto displace = [&](uint32_t from, uint32_t extent) {
        if (cfg.maxDisp == 0)
            return uint32_t(host_rng.below(extent));
        const int64_t span = 2 * int64_t(cfg.maxDisp) + 1;
        int64_t to = int64_t(from) +
                     int64_t(host_rng.below(uint64_t(span))) -
                     cfg.maxDisp;
        to = std::max<int64_t>(0, std::min<int64_t>(extent - 1, to));
        return uint32_t(to);
    };
    for (auto &e : tasks) {
        do {
            e.x0 = uint32_t(host_rng.below(cfg.width));
            e.y0 = uint32_t(host_rng.below(cfg.height));
            e.x1 = displace(e.x0, cfg.width);
            e.y1 = displace(e.y0, cfg.height);
        } while (e.x0 == e.x1 && e.y0 == e.y1);
    }

    Machine m(machine_cfg);
    const Label grid_label = GridClaim::defineLabel(m);
    const Label queue_label = CommQueue::defineLabel(m);
    GridClaim grid(m, grid_label, cfg.width, cfg.height);
    // Routing tasks are distributed through a shared worklist, as in
    // STAMP's labyrinth: on a conventional HTM the queue serializes
    // task distribution on top of the claim conflicts, while CommTM
    // keeps per-core partial queues and steals whole chunks.
    CommQueue tasks_q(m, queue_label,
                      machine_cfg.mode == SystemMode::BaselineHtm);

    std::vector<uint64_t> routed(threads, 0), failed(threads, 0);
    std::vector<std::vector<uint32_t>> claimed(threads);

    for (uint32_t t = 0; t < threads; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            const uint32_t lo =
                uint32_t(uint64_t(cfg.numPaths) * t / threads);
            const uint32_t hi =
                uint32_t(uint64_t(cfg.numPaths) * (t + 1) / threads);
            for (uint32_t p = lo; p < hi; p++)
                tasks_q.enqueue(ctx, p);
            ctx.barrier();

            // Route until the worklist runs dry. No task spawns new
            // tasks, so a worker that cannot steal work retires; its
            // own local list always satisfies its next tryDequeue, so
            // no enqueued task is ever stranded.
            constexpr uint32_t kIdlePolls = 4;
            uint32_t idle = 0;
            uint64_t task;
            while (idle < kIdlePolls) {
                if (!tasks_q.tryDequeue(ctx, &task)) {
                    idle++;
                    ctx.compute(Cycle(64) << std::min(idle, 6u));
                    continue;
                }
                idle = 0;
                const auto p = uint32_t(task);
                bool ok = false;
                for (int attempt = 0; attempt < 2 && !ok; attempt++) {
                    const std::vector<uint32_t> cells = bendCells(
                        tasks[p], cfg.width, attempt == 0);
                    // Maze expansion over the candidate route (grid
                    // copy + Lee's algorithm in the original; modeled
                    // as per-cell compute here).
                    ctx.compute(cfg.routeCostPerCell *
                                uint64_t(cells.size()));
                    if (grid.claimPath(ctx, cells)) {
                        ok = true;
                        claimed[t].insert(claimed[t].end(),
                                          cells.begin(), cells.end());
                    }
                    // The two bends coincide on straight routes; do
                    // not retry the identical cell set.
                    if (tasks[p].x0 == tasks[p].x1 ||
                        tasks[p].y0 == tasks[p].y1) {
                        break;
                    }
                }
                if (ok)
                    routed[t]++;
                else
                    failed[t]++;
            }
        });
    }

    m.run();
    assert(tasks_q.peekSize(m) == 0 && "stranded routing tasks");

    LabyrinthResult result;
    result.stats = m.stats();
    result.numPathsTotal = cfg.numPaths;
    std::set<uint32_t> all_claimed;
    for (uint32_t t = 0; t < threads; t++) {
        result.pathsRouted += routed[t];
        result.pathsFailed += failed[t];
        result.cellsClaimed += claimed[t].size();
        for (uint32_t c : claimed[t]) {
            if (!all_claimed.insert(c).second)
                result.overlapFree = false;
        }
    }
    result.tokensConsumed =
        uint64_t(grid.numCells()) * grid.capacity() -
        grid.peekTokens(m);
    if (m.commitLog())
        result.commitLog = *m.commitLog();
    return result;
}

} // namespace commtm
