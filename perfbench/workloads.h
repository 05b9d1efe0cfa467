/**
 * @file
 * The four perfbench workloads (README.md in this directory explains
 * why each exists). A workload is a list of rows; every row builds a
 * fresh Machine, so modelled caches start empty exactly as in the
 * pinned bench rows.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pass.h"
#include "sim/config.h"

namespace perfbench {

/** What the workload seed and size flags select. */
struct Inputs {
    /** 0 selects the pinned inputs (the MachineConfig and arrival
     *  seeds of the checked-in rows); any other value derives fresh
     *  machine and arrival seeds from it. */
    uint64_t seed = 0;
    /** Reduced op counts and input sizes (self-test smoke mode);
     *  shrunk rows are not compared against pinned values. */
    bool smoke = false;
    /** Add each row's comparison run (traced passes): the open-loop
     *  capture again with its observers off, and the genome and
     *  vacation runners on the rebuilt rows' configs. Each must give
     *  the row's simulated counters exactly. */
    bool compareRuns = false;
};

/** One simulated row: setup() builds everything up to the first
 *  simulated cycle, run() simulates, verifies and folds its counters
 *  into the pass. */
class Row
{
  public:
    virtual ~Row() = default;
    virtual void setup(Pass &pass) = 0;
    virtual void run(Pass &pass) = 0;
};

const std::vector<std::string> &workloadNames();

/** Freshly constructed rows of one pass of @p workload. */
std::vector<std::unique_ptr<Row>> makeRows(const std::string &workload,
                                           const Inputs &in);

/** The machine geometry the layer probes use for @p workload. */
commtm::MachineConfig probeConfig(const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
