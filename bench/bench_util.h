/**
 * @file
 * The bench row registry. Every table, figure, ablation and extension
 * of docs/BENCHMARKS.md is a family of rows; a row is one point of
 * its sweep (system, detection, threads, ...) whose run callable
 * simulates that point and returns a RowResult. Each row file under
 * bench/ keeps one sweep and exposes one add*Rows() function; allRows()
 * lists them all without constructing a Machine.
 *
 * The commtm_bench driver (runBench, bench/driver.cc) selects rows by
 * --filter, runs each selected family's speedup reference row first,
 * prints one JSON object per row, and checks or writes the pinned
 * exact counters in bench/baselines.json (docs/BENCHMARKS.md, "Perf
 * baselines and regression checking").
 */

#ifndef COMMTM_BENCH_BENCH_UTIL_H
#define COMMTM_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline_io.h"
#include "rt/open_loop.h"
#include "sim/config.h"
#include "sim/latency_hist.h"
#include "sim/stats.h"

namespace commtm {
namespace benchutil {

/** A named value a row reports (JSON key, number). */
using Counter = std::pair<std::string, double>;

/** Open-loop outcome of a service row: the measurement-window latency
 *  merge (warmup requests excluded, rt/open_loop.h) and the queueing
 *  totals. */
struct Service {
    LatencyHistogram latency;
    ServiceStats stats;
};

/** What a row's run callable returns. */
struct RowResult {
    /** Simulated statistics; absent for a row that reports only
     *  extra counters (Table I). */
    std::optional<StatsSnapshot> stats;
    /** Row-specific counters, reported after the standard ones. */
    std::vector<Counter> extra;
    std::optional<Service> service;
    /** Free text reported with the row (Table II's operations). */
    std::string note;
    /** Non-empty: the workload's validation failed, and so does the
     *  driver run. */
    std::string error;
};

struct Row {
    std::string label;
    std::function<RowResult()> run;
};

/** One figure/table family: the rows share a speedup reference. */
struct Family {
    std::string name;
    /** Label of the row whose cycles every row's speedup divides;
     *  empty for families that report no speedup. */
    std::string reference;
    /** Rows are pinned in bench/baselines.json. */
    bool pinned = false;
    std::vector<Row> rows;

    void
    add(std::string label, std::function<RowResult()> run)
    {
        rows.push_back({std::move(label), std::move(run)});
    }
};

using Registry = std::vector<Family>;

/** Append a family to @p reg; the returned reference stays valid
 *  until the next addFamily. */
inline Family &
addFamily(Registry &reg, std::string name, std::string reference,
          bool pinned)
{
    reg.push_back({std::move(name), std::move(reference), pinned, {}});
    return reg.back();
}

/** RowResult of a closed-loop run: @p stats, failing with @p what
 *  unless @p valid. */
inline RowResult
rowResult(const StatsSnapshot &stats, bool valid, const char *what)
{
    RowResult r;
    r.stats = stats;
    if (!valid)
        r.error = what;
    return r;
}

/**
 * Machine for a bench row. Up to 128 threads this is exactly the
 * Table I machine (so the checked-in baselines are stable); beyond
 * that, geometry scales proportionally via MachineConfig::forCores
 * (8 cores/tile, one bank/tile, smallest square mesh).
 */
inline MachineConfig
machineCfg(SystemMode mode, uint32_t threads = 0,
           ConflictDetection detection = ConflictDetection::Eager)
{
    MachineConfig cfg = MachineConfig::forCores(threads);
    cfg.mode = mode;
    cfg.conflictDetection = detection;
    return cfg;
}

inline const char *
modeName(SystemMode mode)
{
    switch (mode) {
      case SystemMode::BaselineHtm:    return "Baseline";
      case SystemMode::CommTmNoGather: return "CommTM-NoGather";
      case SystemMode::CommTm:         return "CommTM";
    }
    return "?";
}

/** Row label for a (system, threads, detection) row: the baseline
 *  file keys on these strings ("CommTM/lazy @128t"), so every bench
 *  must build them identically. */
inline std::string
rowName(SystemMode mode, uint32_t threads,
        ConflictDetection detection = ConflictDetection::Eager)
{
    std::string row = modeName(mode);
    if (detection == ConflictDetection::Lazy)
        row += "/lazy";
    return row + " @" + std::to_string(threads) + "t";
}

/** Thread counts swept in the paper's figures (x-axes of Figs. 9-16). */
inline const std::vector<uint32_t> &
threadSweep()
{
    static const std::vector<uint32_t> sweep = {1, 2, 4, 8, 16,
                                                32, 64, 96, 128};
    return sweep;
}

/** threadSweep extended past the paper's 128-thread machine, for the
 *  benches that probe the scaled (256-core) geometry and the spilled
 *  sharer representation. */
inline const std::vector<uint32_t> &
extendedThreadSweep()
{
    static const std::vector<uint32_t> sweep = {1, 2, 4, 8, 16, 32,
                                                64, 96, 128, 256};
    return sweep;
}

/** Reduced sweep for the (slower) full applications. */
inline const std::vector<uint32_t> &
appThreadSweep()
{
    static const std::vector<uint32_t> sweep = {1, 8, 32, 64, 128};
    return sweep;
}

// --- the row files, one add*Rows() each ---
void addFig09Rows(Registry &reg);
void addFig10Rows(Registry &reg);
void addFig12Rows(Registry &reg);
void addFig13Rows(Registry &reg);
void addFig14Rows(Registry &reg);
void addBoruvkaRows(Registry &reg);
void addGenomeRows(Registry &reg);
void addIntruderRows(Registry &reg);
void addKmeansRows(Registry &reg);
void addLabyrinthRows(Registry &reg);
void addSsca2Rows(Registry &reg);
void addVacationRows(Registry &reg);
void addYadaRows(Registry &reg);
void addReplayRows(Registry &reg);
void addSvcCounterRows(Registry &reg);
void addSvcListRows(Registry &reg);
void addSvcTopkRows(Registry &reg);
void addTable1Rows(Registry &reg);
void addTable2Rows(Registry &reg);
void addConflictPolicyRows(Registry &reg);
void addGatherFanoutRows(Registry &reg);
void addLabelsRows(Registry &reg);
void addQuantumRows(Registry &reg);
void addReductionCostRows(Registry &reg);
void addExtLazyRows(Registry &reg);

/** Every family of every row file, in docs/BENCHMARKS.md order. */
Registry allRows();

/** What a row reports: its counters in output order, and the exact
 *  counters a pinned family checks or writes. */
struct Report {
    std::vector<Counter> counters;
    baseline::Entry entry;
};

/** Counters and baseline entry of @p r; @p reference_cycles is the
 *  family reference's runtime (0: the family reports no speedup). */
Report report(const RowResult &r, double reference_cycles);

/** Parsed commtm_bench command line. */
struct Options {
    std::string filter; ///< regex searched in "family/row"; empty: all
    bool list = false;
    bool check = false;
    bool write = false;
    std::string baselinePath = COMMTM_BASELINE_FILE;
};

/** Parse the four commtm_bench flags; false with @p err on anything
 *  else. */
bool parseArgs(int argc, char **argv, Options &opts, std::string &err);

/**
 * Run the rows of @p reg that @p opts selects, printing one JSON
 * object per row to @p out, then check or write the baseline file.
 * Each selected family's reference row runs first, once. Returns the
 * process exit code: nonzero on a row whose validation failed, a
 * baseline mismatch, or a filter that selects nothing.
 */
int runBench(const Registry &reg, const Options &opts, std::FILE *out);

} // namespace benchutil
} // namespace commtm

#endif // COMMTM_BENCH_BENCH_UTIL_H
