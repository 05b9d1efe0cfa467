/**
 * @file
 * intruder: network-intrusion detection (STAMP-style port). Packet
 * fragments stream through a shared FIFO work queue; worker threads
 * pull fragments, reassemble flows in a shared hash map, and run
 * signature detection on completed flows. The queue descriptor is the
 * contended structure: on a conventional HTM every enqueue/dequeue
 * serializes on it, while CommTM keeps per-core partial queues and
 * moves whole chunks between consumers with gathers (CommQueue).
 */

#ifndef COMMTM_APPS_INTRUDER_H
#define COMMTM_APPS_INTRUDER_H

#include "sim/commit_log.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace commtm {

struct IntruderConfig {
    uint32_t numFlows = 512;  //!< flows in the captured stream
    uint32_t maxFrags = 8;    //!< fragments per flow in [1, maxFrags]
    uint32_t attackPct = 10;  //!< fraction of flows carrying a signature
    uint32_t detectCost = 96; //!< detection work per completed flow
    uint64_t seed = 7;
};

struct IntruderResult {
    StatsSnapshot stats;
    uint64_t fragmentsSent = 0;
    uint64_t fragmentsProcessed = 0;
    uint64_t flowsCompleted = 0;
    uint64_t expectedFlows = 0;
    int64_t attacksDetected = 0;  //!< simulated commutative counter
    int64_t attacksFlagged = 0;   //!< host tally of detection hits
    int64_t expectedAttacks = 0;  //!< host-side reference
    uint64_t queueLeftover = 0;   //!< fragments left enqueued (must be 0)
    /** Commit log (empty, with no cores, unless recording was
     *  enabled); determinism tests diff it across same-seed runs. */
    CommitLog commitLog{0};

    bool
    valid() const
    {
        // attacksDetected (the simulated ADD counter) and
        // attacksFlagged (host tallies of the same events) must both
        // match the reference: a divergence between the two is a
        // counter-machinery bug, not a workload bug.
        return fragmentsProcessed == fragmentsSent &&
               flowsCompleted == expectedFlows &&
               attacksDetected == expectedAttacks &&
               attacksFlagged == expectedAttacks && queueLeftover == 0;
    }
};

IntruderResult runIntruder(const MachineConfig &machine_cfg,
                           uint32_t threads, const IntruderConfig &cfg);

} // namespace commtm

#endif // COMMTM_APPS_INTRUDER_H
