/**
 * @file
 * Pass bookkeeping: checks, pinned-row comparison and counter
 * folding.
 */

#include "pass.h"

namespace perfbench {

using namespace commtm;

void
Pass::check(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok)
        failures_.push_back(what);
}

void
Pass::checkPinned(const std::string &family, const std::string &row,
                  const StatsSnapshot &stats, const LatencyHistogram *hist)
{
    if (!pinned_.enabled)
        return;
    const std::string where = family + " / " + row;
    const auto fam = pinned_.file.find(family);
    if (fam == pinned_.file.end() || !fam->second.count(row)) {
        check(false, "pinned row missing: " + where);
        return;
    }
    const benchutil::baseline::Entry &want = fam->second.at(row);
    const uint64_t bump = pinned_.perturb ? 1 : 0;
    const ThreadStats agg = stats.aggregateThreads();
    const auto same = [&](const char *field, uint64_t got,
                          uint64_t expected) {
        check(got == expected + bump,
              where + " " + field + ": got " + std::to_string(got) +
                  ", pinned " + std::to_string(expected + bump));
    };
    same("sim_cycles", stats.runtimeCycles(), want.simCycles);
    same("commits", agg.txCommitted, want.commits);
    same("aborts", agg.txAborted, want.aborts);
    if (hist) {
        check(want.hasQuantiles, "pinned row has no quantiles: " + where);
        same("p50", hist->p50(), want.p50);
        same("p99", hist->p99(), want.p99);
        same("p999", hist->p999(), want.p999);
    }
}

void
Pass::addStats(const StatsSnapshot &stats)
{
    const MachineStats &m = stats.machine;
    const ThreadStats agg = stats.aggregateThreads();
    Counts &c = counts_;
    c.simCycles += stats.runtimeCycles();
    c.l1Hits += m.l1Hits;
    c.l1Misses += m.l1Misses;
    c.l2Misses += m.l2Misses;
    c.l3Misses += m.l3Misses;
    c.invalidations += m.invalidations;
    c.nacks += m.nacks;
    c.getu += m.l3Gets[size_t(GetType::GETU)];
    c.reductions += m.reductions;
    c.gathers += m.gathers;
    c.splits += m.splits;
    c.commits += agg.txCommitted;
    c.aborts += agg.txAborted;
    c.abortedCycles += agg.txAbortedCycles;
    c.threadCycles += agg.totalCycles();
    c.instrs += agg.instrs;
    c.labeledInstrs += agg.labeledInstrs;
}

} // namespace perfbench
