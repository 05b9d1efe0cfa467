/**
 * @file
 * Unit tests for the commit log (docs/ARCHITECTURE.md Sec. 9): pinned
 * digest values for a tiny two-core run, eager and lazy (the format
 * and the digest definition are both contracts — a refactor that
 * changes either must show up here), serialize/deserialize round
 * trips, precise rejection diagnostics for corrupted logs, the three
 * diff policies, abort hygiene, and the COMMTM_RECORD_COMMITS
 * override.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "rt/machine.h"
#include "sim/commit_log.h"

namespace commtm {
namespace {

MachineConfig
twoCoreConfig(ConflictDetection detection = ConflictDetection::Eager)
{
    MachineConfig c = MachineConfig::forCores(2);
    c.numCores = 2;
    c.mode = SystemMode::CommTm;
    c.conflictDetection = detection;
    c.seed = 42;
    c.recordCommits = true;
    return c;
}

/** Fold one labeled op's structural fields the way noteLabeledOp
 *  does, so the test recomputes expected digests independently. */
void
foldShape(FnvDigest &d, CommitOpKind kind, Addr addr, Label label,
          uint32_t size)
{
    d.u8(uint8_t(kind));
    d.u64(addr);
    d.u8(label);
    d.u32(size);
}

/** The pinned two-core run, parameterized on the detection mode.
 *  The digests are pure functions of the committed op stream, so
 *  both modes pin the same values; lazy mode runs the write digest
 *  through commit-time arbitration and write publication. */
class CommitLogPinned : public ::testing::TestWithParam<ConflictDetection>
{
};

TEST_P(CommitLogPinned, DigestsForTwoCoreRun)
{
    Machine m(twoCoreConfig(GetParam()));
    ASSERT_NE(m.commitLog(), nullptr);
    const Label add =
        m.labels().define(labels::makeAdd<int64_t>("ADD"));
    const Addr a = m.allocator().allocLines(1);
    const Addr b = m.allocator().allocLines(1);

    // Core 0 commits a labeled increment on a, then a conventional
    // write on b; the barrier forces core 1's labeled read of a to
    // commit last. The global commit order is therefore pinned:
    // txId 0 and 1 from core 0, txId 2 from core 1.
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            const int64_t v = ctx.readLabeled<int64_t>(a, add);
            ctx.writeLabeled<int64_t>(a, add, v + 7);
        });
        ctx.txRun(
            [&] { ctx.write<int64_t>(b, 0x1122334455667788ll); });
        ctx.barrier();
    });
    m.addThread([&](ThreadContext &ctx) {
        ctx.barrier();
        ctx.txRun([&] { (void)ctx.readLabeled<int64_t>(a, add); });
    });
    m.run();

    const CommitLog &log = *m.commitLog();
    ASSERT_EQ(log.records().size(), 3u);
    const CommitRecord &r0 = log.records()[0];
    const CommitRecord &r1 = log.records()[1];
    const CommitRecord &r2 = log.records()[2];

    EXPECT_EQ(r0.txId, 0u);
    EXPECT_EQ(r0.core, 0u);
    EXPECT_EQ(r0.commitIndex, 0u);
    EXPECT_EQ(r0.labeledOps, 2u);
    EXPECT_EQ(r0.writeLines, 0u);
    EXPECT_EQ(r1.txId, 1u);
    EXPECT_EQ(r1.core, 0u);
    EXPECT_EQ(r1.commitIndex, 1u);
    EXPECT_EQ(r1.labeledOps, 0u);
    EXPECT_EQ(r1.writeLines, 1u);
    EXPECT_EQ(r2.txId, 2u);
    EXPECT_EQ(r2.core, 1u);
    EXPECT_EQ(r2.commitIndex, 0u);
    EXPECT_EQ(r2.labeledOps, 1u);
    EXPECT_EQ(r2.writeLines, 0u);
    // Commit cycles are timing, not contract: only require order.
    EXPECT_LT(r0.commitCycle, r1.commitCycle);
    EXPECT_LT(r1.commitCycle, r2.commitCycle);

    // Recompute every digest from first principles.
    FnvDigest shape0, values0;
    foldShape(shape0, CommitOpKind::LabeledLoad, a, add, 8);
    foldShape(shape0, CommitOpKind::LabeledStore, a, add, 8);
    foldShape(values0, CommitOpKind::LabeledLoad, a, add, 8);
    foldShape(values0, CommitOpKind::LabeledStore, a, add, 8);
    const int64_t stored = 7; // memory starts zeroed, so 0 + 7
    values0.bytes(&stored, sizeof(stored));
    EXPECT_EQ(r0.labeledShape, shape0.value());
    EXPECT_EQ(r0.labeledValues, values0.value());
    EXPECT_EQ(r0.writeSet, FnvDigest::kBasis);

    FnvDigest writes1;
    writes1.u64(lineAddr(b));
    writes1.u64(0xffull); // 8-byte write at line offset 0
    const uint64_t wval = 0x1122334455667788ull;
    for (int i = 0; i < 8; i++)
        writes1.u8(uint8_t(wval >> (8 * i)));
    EXPECT_EQ(r1.labeledShape, FnvDigest::kBasis);
    EXPECT_EQ(r1.labeledValues, FnvDigest::kBasis);
    EXPECT_EQ(r1.writeSet, writes1.value());

    FnvDigest shape2;
    foldShape(shape2, CommitOpKind::LabeledLoad, a, add, 8);
    EXPECT_EQ(r2.labeledShape, shape2.value());
    EXPECT_EQ(r2.labeledValues, shape2.value()); // load: no operand
    EXPECT_EQ(r2.writeSet, FnvDigest::kBasis);

    // Pinned values: the digest definition (FNV-1a over LE-encoded
    // fields), the allocator base, and label numbering are all
    // contracts. If one changes intentionally, re-pin deliberately.
    EXPECT_EQ(a, 0x10000u);
    EXPECT_EQ(b, 0x10040u);
    EXPECT_EQ(add, Label(0));
    EXPECT_EQ(r0.labeledShape, 0x4fe51f6bffd14b10ull);
    EXPECT_EQ(r0.labeledValues, 0xcba0cb017a2853f7ull);
    EXPECT_EQ(r1.writeSet, 0x23a2a8423c6786ffull);
    EXPECT_EQ(r2.labeledShape, 0x5d0f511f8a7ddd5aull);
    EXPECT_EQ(FnvDigest::kBasis, 0xcbf29ce484222325ull);
}

INSTANTIATE_TEST_SUITE_P(CommitLog, CommitLogPinned,
                         ::testing::Values(ConflictDetection::Eager,
                                           ConflictDetection::Lazy),
                         [](const auto &run) {
                             return run.param == ConflictDetection::Eager
                                        ? std::string("Eager")
                                        : std::string("Lazy");
                         });

/** Host-built three-record sample log: core 0 commits a labeled
 *  store and later an empty transaction, core 1 commits one
 *  conventional write line in between. */
CommitLog
sampleLog()
{
    CommitLog log(2);
    const int64_t v = 7;
    log.noteLabeledOp(0, CommitOpKind::LabeledStore, 0x10000, 1, &v,
                      sizeof(v));
    log.sealCommit(0, 100);
    uint8_t line[kLineSize] = {};
    line[0] = 0xab;
    line[3] = 0xcd;
    log.noteWriteLine(1, 0x20000, 0x9, line);
    log.sealCommit(1, 120);
    log.sealCommit(0, 140);
    return log;
}

TEST(CommitLog, SerializeDeserializeRoundTrip)
{
    const CommitLog log = sampleLog();
    const std::vector<uint8_t> bytes = log.serialize();
    ASSERT_EQ(bytes.size(), CommitLog::kHeaderBytes +
                                3 * CommitLog::kRecordBytes);

    CommitLog back(0);
    std::string err;
    ASSERT_TRUE(CommitLog::deserialize(bytes, &back, &err)) << err;
    EXPECT_EQ(back.numCores(), 2u);
    ASSERT_EQ(back.records().size(), 3u);
    EXPECT_EQ(back.commitsOf(0), 2u);
    EXPECT_EQ(back.commitsOf(1), 1u);

    const CommitLogDiff d =
        CommitLog::diff(log, back, DiffMode::Exact);
    EXPECT_TRUE(d.equal) << d.message;
    EXPECT_EQ(back.serialize(), bytes);
}

TEST(CommitLog, CorruptedLogsRejectedWithPreciseDiagnostics)
{
    const std::vector<uint8_t> good = sampleLog().serialize();
    const auto expectReject = [&](std::vector<uint8_t> bytes,
                                  const char *what) {
        CommitLog out(0);
        std::string err;
        EXPECT_FALSE(CommitLog::deserialize(bytes, &out, &err));
        EXPECT_NE(err.find(what), std::string::npos)
            << "diagnostic \"" << err << "\" lacks \"" << what
            << "\"";
    };
    const size_t kRec = CommitLog::kRecordBytes;
    const size_t kHdr = CommitLog::kHeaderBytes;

    std::vector<uint8_t> bad = good;
    bad[0] ^= 0x20;
    expectReject(bad, "bad magic");

    bad = good;
    bad[8] = 9; // version field
    expectReject(bad, "unsupported version 9");

    bad = good;
    bad.resize(kHdr - 1);
    expectReject(bad, "truncated header");

    bad = good;
    bad.pop_back();
    expectReject(bad, "truncated records");

    bad = good;
    bad[kHdr + kRec * 1 + 0] = 5; // record 1's txId field
    expectReject(bad, "record 1: txId field is 5, expected 1");

    bad = good;
    bad[kHdr + kRec * 1 + 8] = 7; // record 1's core field
    expectReject(bad,
                 "record 1 (txId 1): core field is 7, log has 2");

    bad = good;
    bad[kHdr + kRec * 2 + 12] = 5; // record 2's commitIndex field
    expectReject(bad, "record 2 (txId 2): commitIndex field is 5, "
                      "expected 1 for core 0");
}

TEST(CommitLog, DiffModesSeparateInterleavingValuesAndShape)
{
    const int64_t v = 7;
    const auto buildTwoCore = [&](bool core1_first, int64_t operand,
                                  Addr addr) {
        CommitLog log(2);
        const auto sealCore0 = [&] {
            log.noteLabeledOp(0, CommitOpKind::LabeledStore, addr, 1,
                              &operand, sizeof(operand));
            log.sealCommit(0, 10);
        };
        const auto sealCore1 = [&] {
            log.noteLabeledOp(1, CommitOpKind::LabeledLoad, 0x30000,
                              2, nullptr, 8);
            log.sealCommit(1, 20);
        };
        if (core1_first) {
            sealCore1();
            sealCore0();
        } else {
            sealCore0();
            sealCore1();
        }
        return log;
    };
    const CommitLog a = buildTwoCore(false, v, 0x10000);

    // Same per-core streams, different interleaving: Exact catches
    // it, PerCore and Shape accept it.
    const CommitLog b = buildTwoCore(true, v, 0x10000);
    CommitLogDiff d = CommitLog::diff(a, b, DiffMode::Exact);
    EXPECT_FALSE(d.equal);
    EXPECT_NE(d.message.find("record 0"), std::string::npos)
        << d.message;
    EXPECT_NE(d.message.find("core"), std::string::npos) << d.message;
    EXPECT_TRUE(CommitLog::diff(a, b, DiffMode::PerCore).equal);
    EXPECT_TRUE(CommitLog::diff(a, b, DiffMode::Shape).equal);

    // Different store operand: same shape, different values. Shape
    // accepts (the eager-vs-lazy comparison policy), PerCore names
    // the digest and the commit.
    const CommitLog c = buildTwoCore(false, v + 1, 0x10000);
    EXPECT_TRUE(CommitLog::diff(a, c, DiffMode::Shape).equal);
    d = CommitLog::diff(a, c, DiffMode::PerCore);
    EXPECT_FALSE(d.equal);
    EXPECT_NE(d.message.find("core 0 commit #0"), std::string::npos)
        << d.message;
    EXPECT_NE(d.message.find("labeledValues"), std::string::npos)
        << d.message;

    // Different address: even Shape fails.
    const CommitLog e = buildTwoCore(false, v, 0x10040);
    d = CommitLog::diff(a, e, DiffMode::Shape);
    EXPECT_FALSE(d.equal);
    EXPECT_NE(d.message.find("labeledShape"), std::string::npos)
        << d.message;

    // Missing commit on one side: per-core counts differ.
    CommitLog f(2);
    f.noteLabeledOp(0, CommitOpKind::LabeledStore, 0x10000, 1, &v,
                    sizeof(v));
    f.sealCommit(0, 10);
    d = CommitLog::diff(a, f, DiffMode::Shape);
    EXPECT_FALSE(d.equal);
    EXPECT_NE(d.message.find("core 1 committed 1 vs 0"),
              std::string::npos)
        << d.message;
}

TEST(CommitLog, AbortDiscardsPendingDigests)
{
    CommitLog log(2);
    const int64_t v = 99;
    log.noteLabeledOp(0, CommitOpKind::LabeledStore, 0x10000, 1, &v,
                      sizeof(v));
    log.noteLabeledOp(1, CommitOpKind::LabeledStore, 0x10040, 1, &v,
                      sizeof(v));
    log.abortAttempt(0); // discard core 0's digests only
    log.sealCommit(0, 50);
    log.sealCommit(1, 55);
    log.sealCommit(0, 60);

    ASSERT_EQ(log.records().size(), 3u);
    const CommitRecord &r0 = log.records()[0];
    EXPECT_EQ(r0.labeledShape, FnvDigest::kBasis);
    EXPECT_EQ(r0.labeledValues, FnvDigest::kBasis);
    EXPECT_EQ(r0.labeledOps, 0u);
    EXPECT_EQ(log.records()[1].labeledOps, 1u); // core 1's survived
    EXPECT_EQ(log.lastSealedOf(0), 2u);
    EXPECT_EQ(log.lastSealedOf(1), 1u);
    EXPECT_EQ(log.commitsOf(0), 2u);
    EXPECT_EQ(log.commitsOf(1), 1u);

    // A deserialized log answers the same query.
    CommitLog parsed(0);
    std::string err;
    ASSERT_TRUE(CommitLog::deserialize(log.serialize(), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.lastSealedOf(0), 2u);
    EXPECT_EQ(parsed.lastSealedOf(1), 1u);
}

TEST(CommitLog, OperandFlipHookChangesOnlyTheValuesDigest)
{
    const auto build = [](bool flip) {
        CommitLog log(1);
        if (flip)
            log.setTestOperandFlip(0, 0, 0, 2);
        const int64_t v = 7;
        log.noteLabeledOp(0, CommitOpKind::LabeledStore, 0x10000, 1,
                          &v, sizeof(v));
        log.sealCommit(0, 10);
        return log;
    };
    const CommitLog plain = build(false);
    const CommitLog flipped = build(true);
    EXPECT_TRUE(
        CommitLog::diff(plain, flipped, DiffMode::Shape).equal);
    const CommitLogDiff d =
        CommitLog::diff(plain, flipped, DiffMode::PerCore);
    EXPECT_FALSE(d.equal);
    EXPECT_NE(d.message.find("labeledValues"), std::string::npos)
        << d.message;
}

TEST(CommitLog, EnvOverrideForcesRecordingOn)
{
    MachineConfig c = twoCoreConfig();
    c.recordCommits = false;
    {
        Machine off(c);
        EXPECT_EQ(off.commitLog(), nullptr);
    }
    ASSERT_EQ(setenv("COMMTM_RECORD_COMMITS", "1", 1), 0);
    {
        Machine forced(c);
        EXPECT_NE(forced.commitLog(), nullptr);
    }
    ASSERT_EQ(unsetenv("COMMTM_RECORD_COMMITS"), 0);
}

} // namespace
} // namespace commtm
