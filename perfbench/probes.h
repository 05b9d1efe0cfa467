/**
 * @file
 * Layer probes: direct calls into each layer's public functions on a
 * Machine with the workload's geometry, outside Machine::run(), timed
 * per operation. Traced runs only.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <vector>

#include "sim/config.h"

namespace perfbench {

/** One probe metric: the median over several timed batches. */
struct ProbeResult {
    const char *name;
    double value;
    const char *unit;
};

/** Run every probe on @p geometry, in report order; @p small shortens
 *  the batches (smoke mode). */
std::vector<ProbeResult> runProbes(const commtm::MachineConfig &geometry,
                                   bool small);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
