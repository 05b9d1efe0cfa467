/**
 * @file
 * commtm_bench: regenerates the paper's tables and figures, one JSON
 * object per row on stdout (docs/BENCHMARKS.md).
 *
 *   --filter=<regex>          run the rows whose "family/row" matches
 *   --list                    print the selected rows, run nothing
 *   --check-baseline[=path]   compare the pinned rows against the
 *                             baseline file; nonzero exit on mismatch
 *   --write-baseline[=path]   rewrite the selected pinned rows in it
 *
 * The path defaults to the source tree's bench/baselines.json.
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    using namespace commtm::benchutil;
    Options opts;
    std::string err;
    if (!parseArgs(argc, argv, opts, err)) {
        std::fprintf(stderr,
                     "commtm_bench: %s\nusage: commtm_bench "
                     "[--filter=<regex>] [--list] "
                     "[--check-baseline[=path] | "
                     "--write-baseline[=path]]\n",
                     err.c_str());
        return 1;
    }
    return runBench(allRows(), opts, stdout);
}
