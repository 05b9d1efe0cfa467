/**
 * @file
 * The commtm_bench driver behind bench/commtm_bench.cc: the registry
 * of every row file, the RowResult -> counters report, flag parsing,
 * and the run / --list / --check-baseline / --write-baseline modes
 * (bench_util.h).
 */

#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <regex>
#include <set>

namespace commtm {
namespace benchutil {

Registry
allRows()
{
    Registry reg;
    addTable1Rows(reg);
    addTable2Rows(reg);
    addFig09Rows(reg);
    addFig10Rows(reg);
    addFig12Rows(reg);
    addFig13Rows(reg);
    addFig14Rows(reg);
    addBoruvkaRows(reg);
    addKmeansRows(reg);
    addSsca2Rows(reg);
    addGenomeRows(reg);
    addVacationRows(reg);
    addIntruderRows(reg);
    addLabyrinthRows(reg);
    addYadaRows(reg);
    addConflictPolicyRows(reg);
    addGatherFanoutRows(reg);
    addLabelsRows(reg);
    addQuantumRows(reg);
    addReductionCostRows(reg);
    addExtLazyRows(reg);
    addReplayRows(reg);
    addSvcCounterRows(reg);
    addSvcListRows(reg);
    addSvcTopkRows(reg);
    return reg;
}

Report
report(const RowResult &r, double reference_cycles)
{
    Report rep;
    std::vector<Counter> &c = rep.counters;
    if (r.stats) {
        const StatsSnapshot &stats = *r.stats;
        const ThreadStats agg = stats.aggregateThreads();
        const double cycles = double(stats.runtimeCycles());
        c.emplace_back("sim_Mcycles", cycles / 1e6);
        if (reference_cycles > 0)
            c.emplace_back("speedup", reference_cycles / cycles);
        c.emplace_back("commits", double(agg.txCommitted));
        c.emplace_back("aborts", double(agg.txAborted));

        // Fig. 17-style cycle breakdown.
        const double total = double(agg.totalCycles());
        const auto pct = [](uint64_t part, double whole) {
            return whole ? 100.0 * double(part) / whole : 0.0;
        };
        c.emplace_back("cyc_nonTx%", pct(agg.nonTxCycles, total));
        c.emplace_back("cyc_committed%", pct(agg.txCommittedCycles, total));
        c.emplace_back("cyc_wasted%", pct(agg.txAbortedCycles, total));

        // Fig. 18-style wasted-cycle breakdown.
        const double wasted = double(agg.txAbortedCycles);
        const auto waste = [&](WasteBucket b) {
            return pct(agg.wastedByCause[size_t(b)], wasted);
        };
        c.emplace_back("waste_RaW%", waste(WasteBucket::ReadAfterWrite));
        c.emplace_back("waste_WaR%", waste(WasteBucket::WriteAfterRead));
        c.emplace_back("waste_gather%",
                       waste(WasteBucket::GatherAfterLabeled));
        c.emplace_back("waste_other%", waste(WasteBucket::Others));

        // Fig. 19-style GET breakdown (L2 <-> L3 requests).
        const auto &gets = stats.machine.l3Gets;
        c.emplace_back("GETS", double(gets[size_t(GetType::GETS)]));
        c.emplace_back("GETX", double(gets[size_t(GetType::GETX)]));
        c.emplace_back("GETU", double(gets[size_t(GetType::GETU)]));

        c.emplace_back("labeled_frac",
                       agg.instrs ? double(agg.labeledInstrs) /
                                        double(agg.instrs)
                                  : 0.0);
        c.emplace_back("reductions", double(stats.machine.reductions));
        c.emplace_back("gathers", double(stats.machine.gathers));

        rep.entry.simCycles = stats.runtimeCycles();
        rep.entry.commits = agg.txCommitted;
        rep.entry.aborts = agg.txAborted;
        rep.entry.speedup = reference_cycles / cycles;
    }
    if (r.service) {
        const LatencyHistogram &hist = r.service->latency;
        const ServiceStats &svc = r.service->stats;
        c.emplace_back("p50_cyc", double(hist.p50()));
        c.emplace_back("p99_cyc", double(hist.p99()));
        c.emplace_back("p999_cyc", double(hist.p999()));
        c.emplace_back("admitted", double(svc.admitted));
        c.emplace_back("dropped", double(svc.dropped));
        c.emplace_back("qdepth_max", double(svc.maxDepth));
        rep.entry.hasQuantiles = true;
        rep.entry.p50 = hist.p50();
        rep.entry.p99 = hist.p99();
        rep.entry.p999 = hist.p999();
    }
    c.insert(c.end(), r.extra.begin(), r.extra.end());
    return rep;
}

bool
parseArgs(int argc, char **argv, Options &opts, std::string &err)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto baseline_flag = [&](const char *flag) {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0) {
                opts.baselinePath = arg.substr(prefix.size());
                return true;
            }
            return arg == flag;
        };
        if (arg.rfind("--filter=", 0) == 0) {
            opts.filter = arg.substr(9);
        } else if (arg == "--list") {
            opts.list = true;
        } else if (baseline_flag("--check-baseline")) {
            opts.check = true;
        } else if (baseline_flag("--write-baseline")) {
            opts.write = true;
        } else {
            err = "unknown argument '" + arg + "'";
            return false;
        }
    }
    if (opts.check && opts.write) {
        err = "--check-baseline and --write-baseline are exclusive";
        return false;
    }
    return true;
}

namespace {

/** @p s as a JSON string literal. Labels and notes are printable
 *  ASCII, so only quotes and backslashes need escaping. */
std::string
quoted(const std::string &s)
{
    std::string q = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            q += '\\';
        q += ch;
    }
    return q + "\"";
}

/** One JSON object per row: family, row, counters, note, error.
 *  Numbers print with %.17g, so they round-trip exactly. */
void
printRow(std::FILE *out, const std::string &family, const Row &row,
         const RowResult &r, const Report &rep)
{
    std::string line = "{\"family\": " + quoted(family) +
                       ", \"row\": " + quoted(row.label);
    for (const auto &[name, value] : rep.counters) {
        char num[32] = "null";
        if (std::isfinite(value))
            std::snprintf(num, sizeof(num), "%.17g", value);
        line += ", " + quoted(name) + ": " + num;
    }
    if (!r.note.empty())
        line += ", \"note\": " + quoted(r.note);
    if (!r.error.empty())
        line += ", \"error\": " + quoted(r.error);
    std::fprintf(out, "%s}\n", line.c_str());
    std::fflush(out);
}

/** Drop the pins of @p fam's rows that the registry no longer has. */
void
pruneStale(baseline::File &file, const Family &fam)
{
    std::set<std::string> labels;
    for (const Row &row : fam.rows)
        labels.insert(row.label);
    baseline::Family &pins = file[fam.name];
    for (auto it = pins.begin(); it != pins.end();) {
        if (labels.count(it->first))
            ++it;
        else
            it = pins.erase(it);
    }
}

} // namespace

int
runBench(const Registry &reg, const Options &opts, std::FILE *out)
{
    std::regex filter;
    try {
        filter = std::regex(opts.filter);
    } catch (const std::regex_error &e) {
        std::fprintf(stderr, "bad --filter '%s': %s\n",
                     opts.filter.c_str(), e.what());
        return 1;
    }

    std::vector<baseline::Recorded> recorded;
    std::vector<const Family *> ran;
    size_t selected = 0;
    size_t failed = 0;
    const auto fail = [&](const std::string &family, const Row &row,
                          const std::string &error) {
        std::fprintf(stderr, "row %s/%s FAILED: %s\n", family.c_str(),
                     row.label.c_str(), error.c_str());
        failed++;
    };
    for (const Family &fam : reg) {
        std::vector<const Row *> rows;
        for (const Row &row : fam.rows) {
            if (std::regex_search(fam.name + "/" + row.label, filter))
                rows.push_back(&row);
        }
        selected += rows.size();
        if (rows.empty())
            continue;
        if (opts.list) {
            for (const Row *row : rows)
                std::fprintf(out, "%s/%s\n", fam.name.c_str(),
                             row->label.c_str());
            continue;
        }

        // The reference runs first, once, whether or not it is
        // selected: every speedup of the family divides its cycles.
        const Row *ref = nullptr;
        for (const Row &row : fam.rows) {
            if (row.label == fam.reference)
                ref = &row;
        }
        if (!fam.reference.empty() && !ref) {
            std::fprintf(stderr,
                         "family %s: reference row '%s' is not "
                         "registered\n",
                         fam.name.c_str(), fam.reference.c_str());
            return 1;
        }
        RowResult ref_result;
        double ref_cycles = 0;
        if (ref) {
            ref_result = ref->run();
            if (ref_result.stats)
                ref_cycles = double(ref_result.stats->runtimeCycles());
            const bool ref_selected =
                std::find(rows.begin(), rows.end(), ref) != rows.end();
            if (!ref_result.error.empty() && !ref_selected)
                fail(fam.name, *ref, ref_result.error);
        }

        for (const Row *row : rows) {
            const RowResult r = row == ref ? ref_result : row->run();
            const Report rep = report(r, ref_cycles);
            printRow(out, fam.name, *row, r, rep);
            if (!r.error.empty())
                fail(fam.name, *row, r.error);
            if (fam.pinned)
                recorded.push_back({fam.name, row->label, rep.entry});
        }
        ran.push_back(&fam);
    }

    if (selected == 0) {
        std::fprintf(stderr, "no row matches --filter '%s'\n",
                     opts.filter.c_str());
        return 1;
    }
    if (opts.list)
        return 0;
    if (failed) {
        std::fprintf(stderr, "%zu row(s) failed validation%s\n", failed,
                     opts.write ? "; baseline not written" : "");
    }

    if (opts.write && !failed) {
        baseline::File file;
        std::string err;
        baseline::load(opts.baselinePath, file, err); // absent is fine
        for (const Family *fam : ran) {
            if (fam->pinned)
                pruneStale(file, *fam);
        }
        baseline::mergeRecorded(file, recorded);
        if (!baseline::save(opts.baselinePath, file)) {
            std::fprintf(stderr, "cannot write baseline file %s\n",
                         opts.baselinePath.c_str());
            return 1;
        }
        std::fprintf(stderr, "baseline updated: %s (%zu rows)\n",
                     opts.baselinePath.c_str(), recorded.size());
    }
    if (opts.check) {
        baseline::File file;
        std::string err;
        if (!baseline::load(opts.baselinePath, file, err)) {
            std::fprintf(stderr, "baseline check FAILED: %s\n",
                         err.c_str());
            return 1;
        }
        if (!baseline::check(file, recorded))
            return 1;
    }
    return failed ? 1 : 0;
}

} // namespace benchutil
} // namespace commtm
