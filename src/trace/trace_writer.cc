/**
 * @file
 * TraceWriter implementation: per-thread varint/delta record encoding
 * straight into the stream, truncation of aborted attempts, and the
 * sealed-header serializer.
 */

#include "trace/trace_writer.h"

#include <cassert>

namespace commtm {

using namespace trace;

TraceWriter::TraceWriter(const MachineConfig &cfg)
    : fingerprint_(configFingerprint(cfg)), streams_(cfg.numCores)
{
}

uint64_t
TraceWriter::recordsOf(CoreId core) const
{
    return streams_[core].committed().records;
}

void
TraceWriter::encode(CoreId core, TraceOpKind kind, Addr addr,
                    uint32_t size, Label label, const void *data,
                    uint64_t a, uint64_t b)
{
    Stream &s = streams_[core];
    s.bytes.push_back(uint8_t(kind));
    switch (kind) {
      case TraceOpKind::Compute:
        putVarint(s.bytes, a);
        break;
      case TraceOpKind::Load:
      case TraceOpKind::Store:
      case TraceOpKind::LabeledLoad:
      case TraceOpKind::LabeledStore:
      case TraceOpKind::Gather:
        putVarint(s.bytes, zigzag(int64_t(addr - s.lastAddr)));
        putVarint(s.bytes, size);
        s.lastAddr = addr;
        if (kind != TraceOpKind::Load && kind != TraceOpKind::Store)
            s.bytes.push_back(label);
        if (kind == TraceOpKind::Store ||
            kind == TraceOpKind::LabeledStore) {
            const auto *bytes = static_cast<const uint8_t *>(data);
            s.bytes.insert(s.bytes.end(), bytes, bytes + size);
        }
        break;
      case TraceOpKind::TxBegin:
      case TraceOpKind::TxEnd:
      case TraceOpKind::Barrier:
        break;
      case TraceOpKind::Annotation:
        putVarint(s.bytes, a);
        putVarint(s.bytes, b);
        break;
    }
    s.records++;
}

void
TraceWriter::beginAttempt(CoreId core)
{
    Stream &s = streams_[core];
    assert(!s.inAttempt);
    s.mark = s.committed();
    s.inAttempt = true;
    encode(core, TraceOpKind::TxBegin);
}

void
TraceWriter::commitAttempt(CoreId core)
{
    Stream &s = streams_[core];
    assert(s.inAttempt);
    encode(core, TraceOpKind::TxEnd);
    s.inAttempt = false;
    commitOrder_.push_back(core);
}

void
TraceWriter::abortAttempt(CoreId core)
{
    Stream &s = streams_[core];
    assert(s.inAttempt);
    s.bytes.resize(s.mark.bytes);
    s.records = s.mark.records;
    s.lastAddr = s.mark.lastAddr;
    s.inAttempt = false;
}

std::vector<uint8_t>
TraceWriter::serialize() const
{
    std::vector<uint8_t> out;
    size_t total = kHeaderBytes + streams_.size() * kThreadEntryBytes +
                   commitOrder_.size();
    for (const Stream &s : streams_)
        total += s.committed().bytes;
    out.reserve(total);

    const auto put32 = [&out](uint32_t v) {
        for (int i = 0; i < 4; i++)
            out.push_back(uint8_t(v >> (8 * i)));
    };
    const auto put64 = [&out](uint64_t v) {
        for (int i = 0; i < 8; i++)
            out.push_back(uint8_t(v >> (8 * i)));
    };

    for (const char c : kMagic)
        out.push_back(uint8_t(c));
    put32(kVersion);
    put32(uint32_t(streams_.size()));
    put64(fingerprint_);
    put64(commitOrder_.size());
    for (const Stream &s : streams_) {
        put64(s.committed().records);
        put64(s.committed().bytes);
    }
    for (const Stream &s : streams_) {
        out.insert(out.end(), s.bytes.begin(),
                   s.bytes.begin() + long(s.committed().bytes));
    }
    for (const CoreId core : commitOrder_)
        putVarint(out, core);
    return out;
}

} // namespace commtm
