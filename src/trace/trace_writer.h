/**
 * @file
 * Trace capture (docs/ARCHITECTURE.md Sec. 11): TraceWriter records
 * each thread's logical op stream as the ThreadContext issue paths
 * call its note hooks. Strictly observation-only, same discipline as
 * the commit log: hooks buffer host-side state and never touch
 * simulated behavior, so the exact-counter baseline wall runs
 * bit-identical with capture enabled (COMMTM_CAPTURE_TRACE in CI).
 *
 * Every op is encoded straight into its thread's stream. An attempt
 * opens with a mark (stream size, record count, delta base) and a
 * TxBegin record; commit appends TxEnd, abort truncates the stream
 * back to the mark — the captured stream holds committed attempts
 * only. commitAttempt() runs at txRun's commit point, which is
 * atomic in simulated time, so the trace's commit order equals the
 * functional commit order.
 */

#ifndef COMMTM_TRACE_TRACE_WRITER_H
#define COMMTM_TRACE_TRACE_WRITER_H

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "trace/trace_format.h"

namespace commtm {

class TraceWriter
{
  public:
    explicit TraceWriter(const MachineConfig &cfg);

    // --- capture hooks (ThreadContext issue paths) ---

    void
    noteCompute(CoreId core, uint64_t instrs)
    {
        encode(core, TraceOpKind::Compute, 0, 0, kNoLabel, nullptr,
               instrs);
    }

    void
    noteLoad(CoreId core, Addr addr, uint32_t size)
    {
        encode(core, TraceOpKind::Load, addr, size);
    }

    void
    noteStore(CoreId core, Addr addr, uint32_t size, const void *data)
    {
        encode(core, TraceOpKind::Store, addr, size, kNoLabel, data);
    }

    void
    noteLabeledLoad(CoreId core, Addr addr, uint32_t size, Label label)
    {
        encode(core, TraceOpKind::LabeledLoad, addr, size, label);
    }

    void
    noteLabeledStore(CoreId core, Addr addr, uint32_t size, Label label,
                     const void *data)
    {
        encode(core, TraceOpKind::LabeledStore, addr, size, label, data);
    }

    void
    noteGather(CoreId core, Addr addr, uint32_t size, Label label)
    {
        encode(core, TraceOpKind::Gather, addr, size, label);
    }

    void
    noteBarrier(CoreId core)
    {
        assert(!streams_[core].inAttempt &&
               "barriers cannot appear inside transactions");
        encode(core, TraceOpKind::Barrier);
    }

    void
    noteAnnotation(CoreId core, uint32_t code, uint64_t value)
    {
        encode(core, TraceOpKind::Annotation, 0, 0, kNoLabel, nullptr,
               code, value);
    }

    /** A transaction attempt opened on @p core: mark the stream and
     *  write TxBegin. */
    void beginAttempt(CoreId core);
    /** The attempt committed: write TxEnd and append @p core to the
     *  commit order. Must be called at the functional commit point,
     *  before the committing thread can yield. */
    void commitAttempt(CoreId core);
    /** The attempt aborted: truncate the stream back to the mark. */
    void abortAttempt(CoreId core);

    // --- inspection / persistence ---

    uint32_t numThreads() const { return uint32_t(streams_.size()); }
    /** Committed records of @p core (an open attempt excluded). */
    uint64_t recordsOf(CoreId core) const;
    uint64_t fingerprint() const { return fingerprint_; }

    /** Encode the trace (docs/ARCHITECTURE.md Sec. 11 format). An
     *  attempt still open is excluded. */
    std::vector<uint8_t> serialize() const;

  private:
    /** A stream position: byte size, record count, delta base. */
    struct Mark {
        size_t bytes = 0;
        uint64_t records = 0;
        Addr lastAddr = 0;
    };

    struct Stream {
        std::vector<uint8_t> bytes;
        uint64_t records = 0;
        Addr lastAddr = 0; //!< delta base: previous addressed record
        bool inAttempt = false;
        Mark mark; //!< position at beginAttempt

        /** End of the committed prefix (an open attempt excluded). */
        Mark
        committed() const
        {
            return inAttempt ? mark : Mark{bytes.size(), records, lastAddr};
        }
    };

    /** Append one record to @p core's stream. @p a is the Compute
     *  instruction count or Annotation code, @p b the Annotation
     *  value. */
    void encode(CoreId core, TraceOpKind kind, Addr addr = 0,
                uint32_t size = 0, Label label = kNoLabel,
                const void *data = nullptr, uint64_t a = 0,
                uint64_t b = 0);

    uint64_t fingerprint_;
    std::vector<Stream> streams_;
    std::vector<CoreId> commitOrder_;
};

} // namespace commtm

#endif // COMMTM_TRACE_TRACE_WRITER_H
