/**
 * @file
 * yada: Delaunay mesh refinement (STAMP-style port). A worklist of bad
 * elements drives the computation: refining an element reads its
 * cavity (neighboring elements), retriangulates, and pushes newly bad
 * elements back onto the worklist. The worklist is the commutative
 * structure — processing order is irrelevant — and it is both producer
 * and consumer hot: every thread enqueues into its own CommQueue
 * partial list and steals whole chunks from others via gathers only
 * when it runs dry.
 */

#ifndef COMMTM_APPS_YADA_H
#define COMMTM_APPS_YADA_H

#include "sim/commit_log.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace commtm {

struct YadaConfig {
    uint32_t initialBad = 48; //!< root elements seeded into the worklist
    uint32_t maxDepth = 5;    //!< refinement recursion bound
    uint32_t refinePct = 60;  //!< chance a refinable element splits
    uint32_t cavityCost = 64; //!< retriangulation work per element
    uint64_t seed = 5;
};

struct YadaResult {
    StatsSnapshot stats;
    uint64_t elementsProcessed = 0; //!< host tally
    uint64_t expectedElements = 0;  //!< reference refinement-tree size
    int64_t processedCounter = 0;   //!< simulated commutative counter
    int64_t minQuality = 0;         //!< simulated MIN label
    int64_t expectedMinQuality = 0;
    uint64_t duplicates = 0;        //!< elements seen already refined
    uint64_t queueLeftover = 0;
    /** Commit log (empty, with no cores, unless recording was
     *  enabled); determinism tests diff it across same-seed runs. */
    CommitLog commitLog{0};

    bool
    valid() const
    {
        return elementsProcessed == expectedElements &&
               processedCounter == int64_t(expectedElements) &&
               minQuality == expectedMinQuality && duplicates == 0 &&
               queueLeftover == 0;
    }
};

YadaResult runYada(const MachineConfig &machine_cfg, uint32_t threads,
                   const YadaConfig &cfg);

} // namespace commtm

#endif // COMMTM_APPS_YADA_H
