/**
 * @file
 * perfbench: host cost and simulated results of the CommTM simulator
 * on four layer-separating workloads (README.md in this directory).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--perturb-pinned] [--baselines PATH]
 *             [--commit SHA]
 *
 * An untraced run (--trace 0) repeats the workload's rows for S
 * seconds and reports the end-to-end metrics; a traced run (--trace 1)
 * spends half of S untraced and half with spans on, then runs the
 * layer probes, and reports the per-layer metrics. Either prints one
 * "metric NAME VALUE UNIT" line per metric, then one JSON result as
 * the last line of stdout, and exits nonzero when any check failed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pass.h"
#include "probes.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace commtm;

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

/**
 * setup_s samples come from set-up-only passes: kSetupOnlyPerPass
 * before each measured pass, so they spread over the whole run like the
 * passes do (set-up time swings with host load over seconds). Cold
 * set-ups are not samples: the first kSetupWarmup of a process fault in
 * fresh memory, and the first after each simulation finds the caches
 * it evicted, so one set-up-only pass before the samples is discarded.
 * For the same reason a measured pass's own set-up is not a sample.
 */
constexpr int kSetupWarmup = 4;
constexpr int kSetupOnlyPerPass = 3;

/** Longest --seconds accepted. A run overshoots it by the layer probes
 *  (about 2 s) and at most one pass, and run.py stops the executable
 *  at 170 s. */
constexpr double kMaxSeconds = 120;

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    bool perturb = false;
    std::string baselines = "bench/baselines.json";
    std::string commit = "unknown";
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        char *end = nullptr;
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--perturb-pinned") {
            opt.perturb = true;
        } else if (!has_value) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            return false;
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(argv[++i], &end, 10);
            have_seed = *end == '\0';
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(argv[++i], &end);
            have_seconds = *end == '\0' && opt.seconds > 0 &&
                           opt.seconds <= kMaxSeconds;
        } else if (arg == "--trace") {
            const std::string v = argv[++i];
            opt.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (arg == "--baselines") {
            opt.baselines = argv[++i];
        } else if (arg == "--commit") {
            opt.commit = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
            return false;
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) ==
        names.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return false;
    }
    return have_workload && have_seed && have_seconds && have_trace;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** One finished pass, reduced to what the metrics need. */
struct Sample {
    double setup = 0;
    double run = 0;
    Counts counts;
    std::map<std::string, double> spans;
};

/** Checks over all passes of the run. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    add(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            failures.push_back(what);
        }
    }
};

class Runner
{
  public:
    Runner(const Options &opt, Tally &tally)
        : opt_(opt), tally_(tally)
    {
        pinned_.perturb = opt.perturb;
        pinned_.enabled = opt.seed == 0;
        if (pinned_.enabled) {
            std::string err;
            const bool loaded = benchutil::baseline::load(
                opt.baselines, pinned_.file, err);
            tally_.add(loaded, "pinned rows unreadable: " + err);
        }
    }

    /** One pass: every row set up and, if @p simulate, run. Rows are
     *  torn down one by one, untimed. */
    Sample
    pass(bool traced, bool simulate)
    {
        Inputs in;
        in.seed = opt_.seed;
        in.smoke = opt_.smoke;
        in.compareRuns = traced;
        Pass p(traced, pinned_);
        for (auto &row : makeRows(opt_.workload, in)) {
            row->setup(p);
            if (simulate)
                row->run(p);
            row.reset();
        }
        tally_.attempted += p.attempted();
        tally_.failed += p.failures().size();
        for (const std::string &f : p.failures())
            tally_.failures.push_back(f);
        Sample s;
        s.setup = p.seconds(Phase::Setup);
        s.run = p.seconds(Phase::Run);
        s.counts = p.counts();
        s.spans = p.spans();
        return s;
    }

    /** Passes until @p budget seconds are spent; at least one, and
     *  none that the previous pass's length says would overrun. Each
     *  pass must reproduce the first pass's exact counters. With
     *  @p setups, each pass is preceded by one discarded and then
     *  kSetupOnlyPerPass sampled set-up-only passes. */
    std::vector<Sample>
    passes(double budget, bool traced,
           std::vector<double> *setups = nullptr)
    {
        std::vector<Sample> out;
        const double start = nowSeconds();
        double last = 0;
        do {
            const double t0 = nowSeconds();
            if (setups) {
                pass(false, false);
                for (int i = 0; i < kSetupOnlyPerPass; i++)
                    setups->push_back(pass(false, false).setup);
            }
            out.push_back(pass(traced, true));
            last = nowSeconds() - t0;
            if (out.size() > 1)
                tally_.add(sameCounts(out.front().counts,
                                      out.back().counts),
                           "pass counters differ: nondeterminism");
        } while (nowSeconds() - start + last <= budget);
        return out;
    }

  private:
    static bool
    sameCounts(const Counts &a, const Counts &b)
    {
        return a.simCycles == b.simCycles && a.commits == b.commits &&
               a.aborts == b.aborts && a.accesses() == b.accesses() &&
               a.latency == b.latency && a.traceBytes == b.traceBytes;
    }

    const Options &opt_;
    Tally &tally_;
    Pinned pinned_;
};

/** Named metrics: "metric" lines, then the JSON result. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, std::isfinite(value) ? value : 0, unit});
    }

    void
    printLines(const char *tag) const
    {
        for (const Metric &m : metrics_)
            std::printf("%s %s %.17g %s\n", tag, m.name.c_str(), m.value,
                        m.unit);
    }

    void
    printResult(const Tally &tally) const
    {
        // Failures go to stderr first: the result stays the last line
        // of stdout.
        const size_t shown = std::min<size_t>(tally.failures.size(), 20);
        for (size_t i = 0; i < shown; i++)
            std::fprintf(stderr, "FAILED: %s\n", tally.failures[i].c_str());
        std::fflush(stderr);
        printLines("metric");
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    tally.failed == 0 ? "true" : "false", tally.attempted,
                    tally.failed);
        for (size_t i = 0; i < metrics_.size(); i++) {
            const Metric &m = metrics_[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), m.value, m.unit);
        }
        std::printf("}}\n");
    }

  private:
    struct Metric {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Metric> metrics_;
};

double
peakRssMB()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
printProvenance(const Options &opt)
{
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    std::printf("provenance {\"host\": \"%s\", \"nproc\": %ld, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"asserts\": %s, \"commit\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %" PRIu64 ", "
                "\"seconds\": %g, \"trace\": %d, \"smoke\": %s}\n",
                host, sysconf(_SC_NPROCESSORS_ONLN), kCompiler,
                PERFBENCH_BUILD_TYPE, kAssertsOn ? "true" : "false",
                opt.commit.c_str(), opt.workload.c_str(), opt.seed,
                opt.seconds, opt.trace ? 1 : 0,
                opt.smoke ? "true" : "false");
}

/** Open-loop results: zero on the closed-loop workloads, which have
 *  no open-loop row. */
void
addServiceMetrics(Report &r, const Counts &c)
{
    r.add("sim_p50_cyc", double(c.latency.p50()), "cyc");
    r.add("sim_p99_cyc", double(c.latency.p99()), "cyc");
    r.add("sim_requests", double(c.latency.totalCount()), "count");
    r.add("sim_drop_frac", ratio(double(c.dropped), double(c.arrivals)),
          "ratio");
}

void
printInfo(const Tally &tally, size_t passes, const Counts &c)
{
    Report info;
    info.add("passes", double(passes), "count");
    info.add("fail_frac",
             ratio(double(tally.failed), double(tally.attempted)),
             "ratio");
    addServiceMetrics(info, c);
    info.printLines("info");
}

/** The samples behind a median, as one comma-separated info line. */
void
printSamples(const char *name, const std::vector<double> &v)
{
    std::printf("info %s", name);
    for (size_t i = 0; i < v.size(); i++)
        std::printf("%s%.9f", i ? "," : " ", v[i]);
    std::printf(" s\n");
}

void
untracedRun(const Options &opt, Runner &runner, Tally &tally)
{
    for (int i = 0; i < kSetupWarmup; i++)
        runner.pass(false, false);
    std::vector<double> setup, wall;
    const std::vector<Sample> samples =
        runner.passes(opt.seconds, false, &setup);
    for (const Sample &s : samples)
        wall.push_back(s.run);
    const Counts &c = samples.back().counts;
    const double wall_s = median(wall);
    Report r;
    r.add("setup_s", median(setup), "s");
    r.add("wall_s", wall_s, "s");
    r.add("sim_Maccess_per_s", ratio(double(c.accesses()) / 1e6, wall_s),
          "Maccess/s");
    r.add("peak_rss_MB", peakRssMB(), "MB");
    r.add("sim_Mcycles", double(c.simCycles) / 1e6, "Mcyc");
    printInfo(tally, samples.size(), c);
    printSamples("setup_samples_s", setup);
    printSamples("wall_samples_s", wall);
    r.printResult(tally);
}

/** Spans the benchmark records, each reported as "<name>_s": the
 *  median over traced passes of the pass's summed span time. */
const char *const kSpans[] = {
    "apps.input",      "rt.machine_ctor", "lib.init",     "rt.frontend",
    "rt.attach",       "rt.run",          "rt.stats",     "apps.run",
    "trace.serialize", "trace.parse",     "trace.replay", "bench.verify"};

void
tracedRun(const Options &opt, Runner &runner, Tally &tally)
{
    const std::vector<Sample> plain =
        runner.passes(opt.seconds / 2, false);
    const std::vector<Sample> traced = runner.passes(opt.seconds / 2, true);
    const auto spanTime = [&](const std::string &name) {
        std::vector<double> v;
        for (const Sample &s : traced) {
            const auto it = s.spans.find(name);
            v.push_back(it == s.spans.end() ? 0 : it->second);
        }
        return median(v);
    };
    const auto wall = [](const std::vector<Sample> &samples) {
        std::vector<double> v;
        for (const Sample &s : samples)
            v.push_back(s.run);
        return median(v);
    };

    Report r;
    for (const char *span : kSpans)
        r.add(std::string(span) + "_s", spanTime(span), "s");
    for (const ProbeResult &p :
         runProbes(probeConfig(opt.workload), opt.smoke))
        r.add(p.name, p.value, p.unit);

    const Counts &c = traced.back().counts;
    const double accesses = double(c.accesses());
    const double attempts = double(c.attempts());
    r.add("mem.accesses", accesses, "count");
    r.add("mem.l1_hit_frac", ratio(double(c.l1Hits), accesses), "ratio");
    r.add("mem.l2_miss", double(c.l2Misses), "count");
    r.add("mem.l3_miss", double(c.l3Misses), "count");
    r.add("mem.invalidations", double(c.invalidations), "count");
    r.add("mem.nacks", double(c.nacks), "count");
    r.add("htm.attempts", attempts, "count");
    r.add("htm.commit_frac", ratio(double(c.commits), attempts), "ratio");
    r.add("htm.wasted_cyc_frac",
          ratio(double(c.abortedCycles), double(c.threadCycles)), "ratio");
    r.add("commtm.getu", double(c.getu), "count");
    r.add("commtm.reductions", double(c.reductions), "count");
    r.add("commtm.gathers", double(c.gathers), "count");
    r.add("commtm.splits", double(c.splits), "count");
    r.add("commtm.labeled_frac",
          ratio(double(c.labeledInstrs), double(c.instrs)), "ratio");
    r.add("rt.admitted", double(c.admitted), "count");
    r.add("rt.qdepth_max", double(c.qdepthMax), "count");
    r.add("trace.records", double(c.traceRecords), "count");
    r.add("trace.bytes", double(c.traceBytes), "bytes");
    addServiceMetrics(r, c);

    // Host time of the simulated runs, whichever call drove them.
    const double sim_s = spanTime("rt.run") + spanTime("trace.replay");
    r.add("rt.ns_per_access", ratio(sim_s * 1e9, accesses), "ns");
    r.add("rt.ns_per_attempt", ratio(sim_s * 1e9, attempts), "ns");
    const double observers_off = spanTime("sim.observers_off_run");
    r.add("sim.observer_overhead_frac",
          observers_off > 0 ? spanTime("rt.run") / observers_off - 1 : 0,
          "ratio");
    r.add("bench.trace_overhead_frac", ratio(wall(traced), wall(plain)) - 1,
          "ratio");
    printInfo(tally, traced.size(), c);
    r.printResult(tally);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--perturb-pinned] "
                 "[--baselines PATH] [--commit SHA]\nworkloads:");
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    printProvenance(opt);
    Tally tally;
    tally.add(!kAssertsOn,
              "assert-enabled build: its host times are not comparable");
    Runner runner(opt, tally);
    if (opt.trace)
        tracedRun(opt, runner, tally);
    else
        untracedRun(opt, runner, tally);
    return tally.failed == 0 ? 0 : 1;
}
