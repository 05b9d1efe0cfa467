/**
 * @file
 * Table II: benchmark characteristics — which commutative operations
 * each application uses, whether it uses gathers, and the fraction of
 * labeled instructions (reported in Sec. VII's text). Each row runs
 * the application once on CommTM at 16 threads and reports the
 * measured characteristics as counters, and its operations as the
 * row's note.
 */

#include "bench_util.h"

#include "apps/boruvka.h"
#include "apps/genome.h"
#include "apps/intruder.h"
#include "apps/kmeans.h"
#include "apps/labyrinth.h"
#include "apps/ssca2.h"
#include "apps/vacation.h"
#include "apps/yada.h"

namespace commtm {
namespace benchutil {
namespace {

constexpr uint32_t kThreads = 16;

MachineConfig
table2Cfg()
{
    return machineCfg(SystemMode::CommTm);
}

/** Table II row of one application run: @p ops names its commutative
 *  operations; the run fails unless @p valid. */
RowResult
characterize(const StatsSnapshot &stats, bool valid, const char *ops,
             bool uses_gather)
{
    const ThreadStats agg = stats.aggregateThreads();
    RowResult row;
    row.extra = {
        {"labeled_frac", agg.instrs ? double(agg.labeledInstrs) /
                                          double(agg.instrs)
                                    : 0.0},
        {"uses_gather", uses_gather ? 1.0 : 0.0},
        {"gathers_measured", double(stats.machine.gathers)},
        {"splits", double(stats.machine.splits)},
        {"reductions", double(stats.machine.reductions)},
        // Abort characterization (read/write-set conflicts observed
        // on CommTM at the measurement thread count).
        {"commits", double(agg.txCommitted)},
        {"aborts", double(agg.txAborted)},
    };
    row.note = ops;
    if (!valid)
        row.error = "application validation failed";
    return row;
}

RowResult
boruvkaRow()
{
    BoruvkaConfig cfg;
    cfg.numVertices = 2048;
    const BoruvkaResult r = runBoruvka(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "min-weight edges (64b OPUT); union (64b MIN); "
                        "mark edges (64b MAX); MST weight (64b ADD)",
                        false);
}

RowResult
kmeansRow()
{
    KmeansConfig cfg;
    cfg.numPoints = 1024;
    cfg.maxIters = 3;
    const KmeansResult r = runKmeans(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(cfg.numPoints),
                        "cluster centers (32b ADD, 32b FP ADD)", false);
}

RowResult
ssca2Row()
{
    Ssca2Config cfg;
    cfg.scale = 10;
    const Ssca2Result r = runSsca2(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "global graph metadata (32b ADD)", false);
}

RowResult
genomeRow()
{
    GenomeConfig cfg;
    cfg.genomeLength = 4096;
    cfg.numSegments = 8192;
    const GenomeResult r = runGenome(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "remaining-space counter of a resizable hash "
                        "table (bounded 64b ADD)",
                        true);
}

RowResult
vacationRow()
{
    VacationConfig cfg;
    cfg.relations = 1024;
    cfg.numTasks = 2048;
    const VacationResult r = runVacation(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "remaining-space counter of a resizable hash "
                        "table (bounded 64b ADD)",
                        true);
}

RowResult
intruderRow()
{
    IntruderConfig cfg;
    cfg.numFlows = 256;
    const IntruderResult r = runIntruder(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "fragment stream (chunked FIFO CommQueue); "
                        "attack counter (64b ADD); reassembly-table "
                        "space (bounded 64b ADD)",
                        true);
}

RowResult
labyrinthRow()
{
    LabyrinthConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.numPaths = 256;
    cfg.maxDisp = 8;
    const LabyrinthResult r = runLabyrinth(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "routing tasks (chunked FIFO CommQueue); grid "
                        "cell claims (bounded 8b ADD, spatial splitter)",
                        true);
}

RowResult
yadaRow()
{
    YadaConfig cfg;
    cfg.initialBad = 128;
    cfg.maxDepth = 5;
    const YadaResult r = runYada(table2Cfg(), kThreads, cfg);
    return characterize(r.stats, r.valid(),
                        "bad-element worklist (chunked FIFO CommQueue); "
                        "refined counter (64b ADD); quality floor (64b "
                        "MIN)",
                        true);
}

} // namespace

void
addTable2Rows(Registry &reg)
{
    Family &fam = addFamily(reg, "table2", "", false);
    fam.add("boruvka", boruvkaRow);
    fam.add("kmeans", kmeansRow);
    fam.add("ssca2", ssca2Row);
    fam.add("genome", genomeRow);
    fam.add("vacation", vacationRow);
    fam.add("intruder", intruderRow);
    fam.add("labyrinth", labyrinthRow);
    fam.add("yada", yadaRow);
}

} // namespace benchutil
} // namespace commtm
