/**
 * @file
 * labyrinth: grid router (STAMP-style port). Each task routes a wire
 * between two endpoints on a shared grid and then claims every cell of
 * the route atomically. On a conventional HTM the claim transaction
 * conflicts with every concurrent claim that touches the same cache
 * lines (64 cells per line); GridClaim's per-cell tokens make claims
 * of different cells commute even within a line, so only true cell
 * overlaps serialize.
 */

#ifndef COMMTM_APPS_LABYRINTH_H
#define COMMTM_APPS_LABYRINTH_H

#include "sim/commit_log.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace commtm {

struct LabyrinthConfig {
    uint32_t width = 32;
    uint32_t height = 32;
    uint32_t numPaths = 128;      //!< routing tasks
    uint32_t routeCostPerCell = 8; //!< models maze-expansion work
    /** Maximum per-axis endpoint displacement. Keeps routes short so
     *  a sized input undersubscribes the grid (as STAMP's mazes do);
     *  0 means unconstrained endpoints. */
    uint32_t maxDisp = 0;
    uint64_t seed = 33;
};

struct LabyrinthResult {
    StatsSnapshot stats;
    uint64_t pathsRouted = 0;
    uint64_t pathsFailed = 0;
    uint64_t cellsClaimed = 0;   //!< host tally over successful routes
    uint64_t tokensConsumed = 0; //!< initial - final grid tokens
    bool overlapFree = true;     //!< no cell claimed by two routes
    uint64_t numPathsTotal = 0;
    /** Commit log (empty, with no cores, unless recording was
     *  enabled); determinism tests diff it across same-seed runs. */
    CommitLog commitLog{0};

    bool
    valid() const
    {
        return pathsRouted + pathsFailed == numPathsTotal &&
               tokensConsumed == cellsClaimed && overlapFree;
    }
};

LabyrinthResult runLabyrinth(const MachineConfig &machine_cfg,
                             uint32_t threads,
                             const LabyrinthConfig &cfg);

} // namespace commtm

#endif // COMMTM_APPS_LABYRINTH_H
