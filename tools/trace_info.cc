/**
 * @file
 * trace_info: validate CommTM trace captures and summarize them
 * (docs/ARCHITECTURE.md Sec. 11). Each file goes through
 * TraceReader::parse, the same parser replay uses; an accepted file
 * prints its header and a per-thread record/transaction table, a
 * rejected one prints the reader's diagnostic. Exits 1 if any file
 * is unreadable or rejected.
 *
 *   COMMTM_CAPTURE_TRACE=/tmp/cap.trace build/trace_test
 *   build/trace_info /tmp/cap.trace
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/trace_reader.h"

using namespace commtm;

namespace {

void
report(const char *path, const Trace &trace)
{
    std::printf("%s: CTMTRACE v%u, %u threads, %zu commits, "
                "config fingerprint 0x%016" PRIx64 "\n",
                path, trace.version, trace.numThreads(),
                trace.commitOrder.size(), trace.configFingerprint);
    std::printf("  %6s %10s %8s\n", "thread", "records", "txs");
    uint32_t idle = 0;
    for (uint32_t t = 0; t < trace.numThreads(); t++) {
        const std::vector<TraceRecord> &records = trace.threads[t];
        if (records.empty()) {
            idle++;
            continue;
        }
        size_t txs = 0;
        for (const TraceRecord &r : records)
            txs += r.kind == TraceOpKind::TxBegin;
        std::printf("  %6u %10zu %8zu\n", t, records.size(), txs);
    }
    if (idle)
        std::printf("  (%u idle threads with empty streams)\n", idle);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s TRACE [TRACE ...]\n", argv[0]);
        return 2;
    }
    int status = 0;
    for (int i = 1; i < argc; i++) {
        std::ifstream in(argv[i], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "%s: cannot open\n", argv[i]);
            status = 1;
            continue;
        }
        const std::vector<uint8_t> buf(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        Trace trace;
        std::string error;
        if (!TraceReader::parse(buf, &trace, &error)) {
            std::fprintf(stderr, "%s: INVALID: %s\n", argv[i],
                         error.c_str());
            status = 1;
            continue;
        }
        report(argv[i], trace);
    }
    return status;
}
