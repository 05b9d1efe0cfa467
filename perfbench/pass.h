/**
 * @file
 * One measured pass of a perfbench workload: the host-time phases
 * that make up the end-to-end metrics, the summed host time of each
 * named span around a public call the benchmark makes (traced runs
 * only), the correctness checks, and the exact counters the pass's
 * rows produced.
 */

#ifndef PERFBENCH_PASS_H
#define PERFBENCH_PASS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/baseline_io.h"
#include "sim/latency_hist.h"
#include "sim/stats.h"

namespace perfbench {

/** Host seconds on the steady clock. */
inline double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

/** The end-to-end host-time bucket a timed call is charged to. Other
 *  time (verification, and the comparison runs of a traced pass)
 *  stays out of both setup_s and wall_s. */
enum class Phase { Setup, Run, Other };

/** Exact simulated counters of one pass, summed over its rows. */
struct Counts {
    uint64_t simCycles = 0; //!< sum of the rows' runtimeCycles()
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Misses = 0;
    uint64_t invalidations = 0;
    uint64_t nacks = 0;
    uint64_t getu = 0;
    uint64_t reductions = 0;
    uint64_t gathers = 0;
    uint64_t splits = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t abortedCycles = 0;
    uint64_t threadCycles = 0;
    uint64_t instrs = 0;
    uint64_t labeledInstrs = 0;
    // The open-loop row (capture_replay only).
    uint64_t arrivals = 0;
    uint64_t admitted = 0;
    uint64_t dropped = 0;
    uint64_t qdepthMax = 0;
    /** Enqueue-to-commit latency over the measurement windows. */
    commtm::LatencyHistogram latency;
    // Trace capture.
    uint64_t traceRecords = 0;
    uint64_t traceBytes = 0;

    uint64_t accesses() const { return l1Hits + l1Misses; }
    uint64_t attempts() const { return commits + aborts; }
};

/** The checked-in pinned rows (bench/baselines.json) a default-seed
 *  run must reproduce; disabled on other seeds. */
struct Pinned {
    bool enabled = false;
    /** Self-test hook: add one to every expected value, so a correct
     *  run must report each pinned comparison as failed. */
    bool perturb = false;
    commtm::benchutil::baseline::File file;
};

class Pass
{
  public:
    Pass(bool traced, const Pinned &pinned)
        : traced_(traced), pinned_(pinned)
    {
    }

    /** Run @p fn, charge its host time to @p phase and, when traced,
     *  add it to span @p span. No timed call nests inside another. */
    template <typename Fn>
    void
    timed(Phase phase, const char *span, Fn &&fn)
    {
        const double start = nowSeconds();
        fn();
        const double took = nowSeconds() - start;
        seconds_[size_t(phase)] += took;
        if (traced_)
            spans_[span] += took;
    }

    /** Count one correctness check. */
    void check(bool ok, const std::string &what);

    /** Compare a row against its pinned entry: sim_cycles, commits,
     *  aborts and, with @p hist, p50/p99/p999 — one check each. A
     *  no-op unless pinning is enabled. */
    void checkPinned(const std::string &family, const std::string &row,
                     const commtm::StatsSnapshot &stats,
                     const commtm::LatencyHistogram *hist);

    /** Fold a row's counters into the pass totals. */
    void addStats(const commtm::StatsSnapshot &stats);

    double seconds(Phase phase) const { return seconds_[size_t(phase)]; }
    Counts &counts() { return counts_; }
    uint64_t attempted() const { return attempted_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /** Summed host seconds per span name (traced passes only). */
    const std::map<std::string, double> &spans() const { return spans_; }

  private:
    bool traced_;
    const Pinned &pinned_;
    double seconds_[3] = {0, 0, 0};
    std::map<std::string, double> spans_;
    Counts counts_;
    uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

} // namespace perfbench

#endif // PERFBENCH_PASS_H
