/**
 * @file
 * Trace parsing and validation (docs/ARCHITECTURE.md Sec. 11):
 * TraceReader::parse decodes a serialized capture into per-thread
 * record vectors plus the commit order, rejecting malformed input
 * with a field-precise diagnostic (which thread, record, and field).
 */

#ifndef COMMTM_TRACE_TRACE_READER_H
#define COMMTM_TRACE_TRACE_READER_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"
#include "trace/trace_format.h"

namespace commtm {

/** One decoded record (see trace_format.h for field meanings). */
struct TraceRecord {
    TraceOpKind kind = TraceOpKind::Compute;
    Addr addr = 0;
    uint32_t size = 0;
    Label label = kNoLabel;
    uint64_t a = 0; //!< Compute instrs / Annotation code
    uint64_t b = 0; //!< Annotation value
    std::vector<uint8_t> data; //!< store operand bytes
};

/** A fully decoded capture. */
struct Trace {
    uint32_t version = 0;
    uint64_t configFingerprint = 0;
    std::vector<std::vector<TraceRecord>> threads;
    std::vector<CoreId> commitOrder;

    uint32_t numThreads() const { return uint32_t(threads.size()); }
};

class TraceReader
{
  public:
    /**
     * Decode @p buf into @p out. Returns false on malformed input and
     * sets @p error to a precise diagnostic. Validates structure
     * (header, stream bounds, record/byte counts, varint bounds,
     * opcode and label ranges, TxBegin/TxEnd balance, commit-order
     * core range, trailing bytes) — not the capture config: a trace
     * replays against any MachineConfig by design.
     */
    static bool parse(const std::vector<uint8_t> &buf, Trace *out,
                      std::string *error);
};

} // namespace commtm

#endif // COMMTM_TRACE_TRACE_READER_H
