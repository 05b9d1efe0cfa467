/**
 * @file
 * CommitLog implementation: digest folding, sealing, the fixed-width
 * serialized format, and the three diff policies.
 */

#include "sim/commit_log.h"

#include <cassert>
#include <cstdio>
#include <cstring>

namespace commtm {

namespace {

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out.push_back(uint8_t(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(uint8_t(v >> (8 * i)));
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v |= uint32_t(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  (unsigned long long)v);
    return buf;
}

} // namespace

CommitLog::CommitLog(uint32_t num_cores)
    : pending_(num_cores), commits_(num_cores, 0),
      lastSealed_(num_cores, 0)
{
}

void
CommitLog::noteLabeledOp(CoreId core, CommitOpKind kind, Addr addr,
                         Label label, const void *operand,
                         uint32_t size)
{
    Pending &p = pending_[core];
    const auto foldShape = [&](FnvDigest &d) {
        d.u8(uint8_t(kind));
        d.u64(addr);
        d.u8(label);
        d.u32(size);
    };
    foldShape(p.shape);
    foldShape(p.values);
    if (operand) {
        if (flipArmed_ && core == flipCore_ &&
            commits_[core] == flipCommit_ &&
            p.labeledOps == flipOp_ && flipByte_ < size) {
            // Test-only divergence injection (setTestOperandFlip).
            const auto *src = static_cast<const uint8_t *>(operand);
            for (uint32_t i = 0; i < size; i++)
                p.values.u8(i == flipByte_ ? uint8_t(src[i] ^ 1)
                                           : src[i]);
        } else {
            p.values.bytes(operand, size);
        }
    }
    p.labeledOps++;
}

void
CommitLog::noteWriteLine(CoreId core, Addr line, uint64_t mask,
                         const uint8_t *data)
{
    Pending &p = pending_[core];
    p.writes.u64(line);
    p.writes.u64(mask);
    for (size_t i = 0; i < kLineSize; i++) {
        if (mask & (uint64_t(1) << i))
            p.writes.u8(data[i]);
    }
    p.writeLines++;
}

void
CommitLog::sealCommit(CoreId core, Cycle commit_cycle)
{
    Pending &p = pending_[core];
    CommitRecord rec;
    rec.txId = records_.size();
    rec.core = core;
    rec.commitIndex = commits_[core]++;
    rec.commitCycle = commit_cycle;
    rec.labeledShape = p.shape.value();
    rec.labeledValues = p.values.value();
    rec.writeSet = p.writes.value();
    rec.labeledOps = p.labeledOps;
    rec.writeLines = p.writeLines;
    lastSealed_[core] = rec.txId;
    records_.push_back(rec);
    p = Pending{};
}

void
CommitLog::abortAttempt(CoreId core)
{
    pending_[core] = Pending{};
}

void
CommitLog::setTestOperandFlip(CoreId core, uint32_t commit_index,
                              uint32_t op_index, uint32_t byte_index)
{
    flipArmed_ = true;
    flipCore_ = core;
    flipCommit_ = commit_index;
    flipOp_ = op_index;
    flipByte_ = byte_index;
}

std::vector<uint8_t>
CommitLog::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(kHeaderBytes + kRecordBytes * records_.size());
    // push_back loop, not a range insert: gcc 12's -O2 overflow
    // analysis misjudges insert-from-char-array into a byte vector
    // and fails -Werror (stringop-overflow false positive).
    for (const char c : kMagic)
        out.push_back(uint8_t(c));
    putU32(out, kVersion);
    putU32(out, numCores());
    putU64(out, records_.size());
    for (const CommitRecord &r : records_) {
        putU64(out, r.txId);
        putU32(out, r.core);
        putU32(out, r.commitIndex);
        putU64(out, r.commitCycle);
        putU64(out, r.labeledShape);
        putU64(out, r.labeledValues);
        putU64(out, r.writeSet);
        putU32(out, r.labeledOps);
        putU32(out, r.writeLines);
    }
    return out;
}

bool
CommitLog::deserialize(const std::vector<uint8_t> &buf, CommitLog *out,
                       std::string *error)
{
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (buf.size() < kHeaderBytes) {
        return fail("truncated header: " + std::to_string(buf.size()) +
                    " bytes, need " + std::to_string(kHeaderBytes));
    }
    if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
        return fail("bad magic: not a commit log");
    const uint32_t version = getU32(&buf[8]);
    if (version != kVersion) {
        return fail("unsupported version " + std::to_string(version));
    }
    const uint32_t num_cores = getU32(&buf[12]);
    const uint64_t count = getU64(&buf[16]);
    if (buf.size() != kHeaderBytes + kRecordBytes * count) {
        return fail("truncated records: header claims " +
                    std::to_string(count) + " records (" +
                    std::to_string(kHeaderBytes +
                                   kRecordBytes * count) +
                    " bytes), got " + std::to_string(buf.size()));
    }
    CommitLog log(num_cores);
    log.records_.reserve(count);
    for (uint64_t i = 0; i < count; i++) {
        const uint8_t *p = &buf[kHeaderBytes + kRecordBytes * i];
        CommitRecord r;
        r.txId = getU64(p + 0);
        r.core = getU32(p + 8);
        r.commitIndex = getU32(p + 12);
        r.commitCycle = getU64(p + 16);
        r.labeledShape = getU64(p + 24);
        r.labeledValues = getU64(p + 32);
        r.writeSet = getU64(p + 40);
        r.labeledOps = getU32(p + 48);
        r.writeLines = getU32(p + 52);
        if (r.txId != i) {
            return fail("record " + std::to_string(i) +
                        ": txId field is " + std::to_string(r.txId) +
                        ", expected " + std::to_string(i));
        }
        if (r.core >= num_cores) {
            return fail("record " + std::to_string(i) + " (txId " +
                        std::to_string(r.txId) +
                        "): core field is " + std::to_string(r.core) +
                        ", log has " + std::to_string(num_cores) +
                        " cores");
        }
        if (r.commitIndex != log.commits_[r.core]) {
            return fail(
                "record " + std::to_string(i) + " (txId " +
                std::to_string(r.txId) + "): commitIndex field is " +
                std::to_string(r.commitIndex) + ", expected " +
                std::to_string(log.commits_[r.core]) + " for core " +
                std::to_string(r.core));
        }
        log.commits_[r.core]++;
        log.lastSealed_[r.core] = r.txId;
        log.records_.push_back(r);
    }
    *out = std::move(log);
    return true;
}

CommitLogDiff
CommitLog::diff(const CommitLog &a, const CommitLog &b, DiffMode mode)
{
    CommitLogDiff d;
    const auto fail = [&](const std::string &msg) {
        d.equal = false;
        d.message = msg;
        return d;
    };
    if (a.numCores() != b.numCores()) {
        return fail("core counts differ: " +
                    std::to_string(a.numCores()) + " vs " +
                    std::to_string(b.numCores()));
    }
    if (mode == DiffMode::Exact) {
        if (a.records_.size() != b.records_.size()) {
            return fail("record counts differ: " +
                        std::to_string(a.records_.size()) + " vs " +
                        std::to_string(b.records_.size()));
        }
        for (size_t i = 0; i < a.records_.size(); i++) {
            const CommitRecord &ra = a.records_[i];
            const CommitRecord &rb = b.records_[i];
            const auto at = [&](const char *field,
                                const std::string &va,
                                const std::string &vb) {
                return fail("record " + std::to_string(i) +
                            " (txId " + std::to_string(ra.txId) +
                            "): " + field + " " + va + " vs " + vb);
            };
            if (ra.core != rb.core)
                return at("core", std::to_string(ra.core),
                          std::to_string(rb.core));
            if (ra.commitIndex != rb.commitIndex)
                return at("commitIndex",
                          std::to_string(ra.commitIndex),
                          std::to_string(rb.commitIndex));
            if (ra.commitCycle != rb.commitCycle)
                return at("commitCycle",
                          std::to_string(ra.commitCycle),
                          std::to_string(rb.commitCycle));
            if (ra.labeledShape != rb.labeledShape)
                return at("labeledShape", hex(ra.labeledShape),
                          hex(rb.labeledShape));
            if (ra.labeledValues != rb.labeledValues)
                return at("labeledValues", hex(ra.labeledValues),
                          hex(rb.labeledValues));
            if (ra.writeSet != rb.writeSet)
                return at("writeSet", hex(ra.writeSet),
                          hex(rb.writeSet));
            if (ra.labeledOps != rb.labeledOps)
                return at("labeledOps", std::to_string(ra.labeledOps),
                          std::to_string(rb.labeledOps));
            if (ra.writeLines != rb.writeLines)
                return at("writeLines", std::to_string(ra.writeLines),
                          std::to_string(rb.writeLines));
        }
        return d;
    }
    // PerCore / Shape: compare each core's commit stream in order,
    // ignoring the global interleaving and cycle counts.
    std::vector<std::vector<const CommitRecord *>> byCoreA(a.numCores());
    std::vector<std::vector<const CommitRecord *>> byCoreB(b.numCores());
    for (const CommitRecord &r : a.records_)
        byCoreA[r.core].push_back(&r);
    for (const CommitRecord &r : b.records_)
        byCoreB[r.core].push_back(&r);
    for (uint32_t c = 0; c < a.numCores(); c++) {
        if (byCoreA[c].size() != byCoreB[c].size()) {
            return fail("core " + std::to_string(c) + " committed " +
                        std::to_string(byCoreA[c].size()) + " vs " +
                        std::to_string(byCoreB[c].size()) +
                        " transactions");
        }
        for (size_t i = 0; i < byCoreA[c].size(); i++) {
            const CommitRecord &ra = *byCoreA[c][i];
            const CommitRecord &rb = *byCoreB[c][i];
            const auto at = [&](const char *field,
                                const std::string &va,
                                const std::string &vb) {
                return fail("core " + std::to_string(c) +
                            " commit #" + std::to_string(i) +
                            " (txId " + std::to_string(ra.txId) +
                            " vs " + std::to_string(rb.txId) +
                            "): " + field + " " + va + " vs " + vb);
            };
            if (ra.labeledShape != rb.labeledShape)
                return at("labeledShape", hex(ra.labeledShape),
                          hex(rb.labeledShape));
            if (ra.labeledOps != rb.labeledOps)
                return at("labeledOps", std::to_string(ra.labeledOps),
                          std::to_string(rb.labeledOps));
            if (mode == DiffMode::Shape)
                continue;
            if (ra.labeledValues != rb.labeledValues)
                return at("labeledValues", hex(ra.labeledValues),
                          hex(rb.labeledValues));
            if (ra.writeSet != rb.writeSet)
                return at("writeSet", hex(ra.writeSet),
                          hex(rb.writeSet));
            if (ra.writeLines != rb.writeLines)
                return at("writeLines", std::to_string(ra.writeLines),
                          std::to_string(rb.writeLines));
        }
    }
    return d;
}

} // namespace commtm
