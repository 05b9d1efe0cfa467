/**
 * @file
 * Inclusive-hierarchy eviction tests: L3/directory evictions must
 * back-invalidate private copies, reduce U lines to memory, and abort
 * transactions that speculatively accessed the victim (Sec. III-B5),
 * plus block-access (readBytes/writeBytes) semantics.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "lib/counter.h"
#include "lib/ordered_put.h"
#include "rt/machine.h"

namespace commtm {
namespace {

/** Machine with a tiny L3 (16 sets x 16 ways) to force L3 evictions. */
MachineConfig
tinyL3Config()
{
    MachineConfig c;
    c.numCores = 4;
    c.mode = SystemMode::CommTm;
    c.l3SizeKB = 16; // 256 lines, 16-way -> 16 sets
    return c;
}

TEST(L3Eviction, UEvictionReducesToMemoryAndAbortsAccessors)
{
    MachineConfig cfg = tinyL3Config();
    Machine m(cfg);
    const Label add = CommCounter::defineLabel(m);
    const uint32_t l3_sets = cfg.l3Lines() / cfg.l3Ways;
    const Addr target = m.allocator().allocLines(1);
    m.memory().write<int64_t>(target, 5);

    m.addThread([&](ThreadContext &ctx) {
        // Commit a labeled delta; the line stays in U.
        ctx.txRun([&] {
            const int64_t v = ctx.readLabeled<int64_t>(target, add);
            ctx.writeLabeled<int64_t>(target, add, v + 37);
        });
        ASSERT_TRUE(m.memSys().coreHasU(0, lineAddr(target)));
        // Flood the target's L3 set from this core until the U line's
        // directory entry is evicted.
        for (uint32_t i = 1; i <= cfg.l3Ways + 4; i++) {
            ctx.read<int64_t>(target + Addr(i) * l3_sets * kLineSize);
        }
        EXPECT_FALSE(m.memSys().coreHasU(0, lineAddr(target)));
        // The reduction wrote the merged value back to memory.
        EXPECT_EQ(ctx.read<int64_t>(target), 42);
    });
    m.run();
    EXPECT_EQ(m.stats().machine.uWritebacks, 1u);
}

TEST(L3Eviction, BackInvalidationAbortsSpeculativeReaders)
{
    MachineConfig cfg = tinyL3Config();
    Machine m(cfg);
    const uint32_t l3_sets = cfg.l3Lines() / cfg.l3Ways;
    const Addr target = m.allocator().allocLines(1);
    m.memory().write<int64_t>(target, 7);
    uint32_t attempts = 0;

    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            attempts++;
            const int64_t v = ctx.read<int64_t>(target); // read set
            EXPECT_EQ(v, 7);
            if (attempts > 1)
                return;
            // Flood the L3 set: eventually the target's directory
            // entry is evicted, which must abort us (the back-
            // invalidation removes a speculatively-read line).
            for (uint32_t i = 1; i <= cfg.l3Ways + 4; i++) {
                ctx.read<int64_t>(target +
                                  Addr(i) * l3_sets * kLineSize);
            }
        });
    });
    m.run();
    EXPECT_GE(attempts, 2u);
    EXPECT_GE(m.stats().aggregateThreads().txAborted, 1u);
}

/** Tiny private hierarchy (16-line L1, 32-line L2) to force L2
 *  evictions — and through them U-line evictions — with a short flood. */
MachineConfig
tinyL2Config(uint32_t cores)
{
    MachineConfig c;
    c.numCores = cores;
    c.mode = SystemMode::CommTm;
    c.l1SizeKB = 1; // 16 lines, 8-way -> 2 sets
    c.l2SizeKB = 2; // 32 lines, 8-way -> 4 sets
    return c;
}

TEST(UEviction, ForwardWhileTransactionHasBufferedWrites)
{
    // Core 1 evicts its U copy while core 0's transaction holds
    // buffered (uncommitted) labeled writes to the same line. The
    // forward must reduce only committed U state into core 0 (aborting
    // core 0's transaction), and the buffered bytes must not leak:
    // debugReducedValue sees exactly the committed contributions.
    MachineConfig cfg = tinyL2Config(2);
    Machine m(cfg);
    const Label add = CommCounter::defineLabel(m);
    const uint32_t l2_sets = cfg.l2Lines() / cfg.l2Ways;
    const Addr target = m.allocator().allocLines(1);
    m.memory().write<int64_t>(target, 100);

    bool t0InTx = false;
    bool floodDone = false;
    uint32_t attempts = 0;

    m.addThread([&](ThreadContext &ctx) { // core 0
        // Committed labeled add: absorbs the memory value into our
        // U copy (first GETU requester).
        ctx.txRun([&] {
            const int64_t v = ctx.readLabeled<int64_t>(target, add);
            ctx.writeLabeled<int64_t>(target, add, v + 37);
        });
        ctx.txRun([&] {
            attempts++;
            const int64_t v = ctx.readLabeled<int64_t>(target, add);
            ctx.writeLabeled<int64_t>(target, add, v + 11); // buffered
            t0InTx = true;
            // Stay inside the transaction until core 1's flood has
            // evicted its U copy (the first attempt is doomed by the
            // resulting forward; compute() observes the doom, and from
            // then on is a no-op that never yields to core 1).
            while (!floodDone && !ctx.txAborted())
                ctx.compute(50);
        });
    });

    m.addThread([&](ThreadContext &ctx) { // core 1
        // Join the reducible line (same label: initialized to identity).
        ctx.txRun([&] {
            const int64_t v = ctx.readLabeled<int64_t>(target, add);
            ctx.writeLabeled<int64_t>(target, add, v + 5);
        });
        while (!t0InTx)
            ctx.compute(10);
        // Flood our own L2 set: the U line becomes LRU and is evicted,
        // forwarding our copy to the only other sharer — core 0.
        for (uint32_t i = 1; i <= cfg.l2Ways + 4; i++) {
            ctx.read<int64_t>(target + Addr(i) * l2_sets * kLineSize);
        }
        EXPECT_FALSE(m.memSys().coreHasU(1, lineAddr(target)));
        // Functional invariant (Sec. III-B3): the line's value is the
        // reduction of committed U copies — 100 + 37 + 5, with core
        // 0's buffered +11 invisible.
        LineData reduced = m.memSys().debugReducedValue(lineAddr(target));
        int64_t value;
        std::memcpy(&value, reduced.data(), sizeof(value));
        EXPECT_EQ(value, 142);
        floodDone = true;
    });

    m.run();
    // Core 0 retried and committed its +11 on the merged copy.
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(m.stats().machine.uForwards, 1u);
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_EQ(agg.txAborted, 1u);
    EXPECT_EQ(agg.abortsByCause[size_t(AbortCause::UEviction)], 1u);
    LineData reduced = m.memSys().debugReducedValue(lineAddr(target));
    int64_t final_value;
    std::memcpy(&final_value, reduced.data(), sizeof(final_value));
    EXPECT_EQ(final_value, 153);
}

TEST(UEviction, SoleSharerWritebackAbortsBufferingTransaction)
{
    // A transaction's own cache-pressure eviction of a U line it has
    // buffered writes to: the committed copy is written back to
    // memory, the transaction aborts, and the retry commits on a
    // re-acquired copy.
    MachineConfig cfg = tinyL2Config(1);
    Machine m(cfg);
    const Label add = CommCounter::defineLabel(m);
    const uint32_t l2_sets = cfg.l2Lines() / cfg.l2Ways;
    const Addr target = m.allocator().allocLines(1);
    m.memory().write<int64_t>(target, 7);
    uint32_t attempts = 0;

    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            attempts++;
            const int64_t v = ctx.readLabeled<int64_t>(target, add);
            ctx.writeLabeled<int64_t>(target, add, v + 2); // buffered
            if (attempts > 1)
                return;
            // Evict the U line from our own L2 mid-transaction; one of
            // these fills dooms us (capacity or U-eviction abort).
            for (uint32_t i = 1; i <= cfg.l2Ways + 4; i++) {
                ctx.read<int64_t>(target +
                                  Addr(i) * l2_sets * kLineSize);
            }
        });
        // The buffered +2 of the aborted attempt must not have leaked.
        EXPECT_EQ(ctx.read<int64_t>(target), 9);
    });
    m.run();
    EXPECT_EQ(attempts, 2u);
    EXPECT_GE(m.stats().machine.uWritebacks, 1u);
    EXPECT_GE(m.stats().aggregateThreads().txAborted, 1u);
    EXPECT_EQ(m.memory().read<int64_t>(target), 9);
}

TEST(BlockAccess, ReadWriteBytesRoundTrip)
{
    MachineConfig cfg;
    cfg.numCores = 2;
    Machine m(cfg);
    const Addr a = m.allocator().allocLines(4);
    std::vector<uint8_t> src(200);
    for (size_t i = 0; i < src.size(); i++)
        src[i] = uint8_t(i * 7);
    m.addThread([&](ThreadContext &ctx) {
        ctx.writeBytes(a + 10, src.data(), src.size()); // unaligned
        std::vector<uint8_t> back(src.size());
        ctx.readBytes(a + 10, back.data(), back.size());
        EXPECT_EQ(back, src);
    });
    m.run();
    std::vector<uint8_t> committed(src.size());
    m.memory().read(a + 10, committed.data(), committed.size());
    EXPECT_EQ(committed, src);
}

TEST(BlockAccess, TransactionalBlockWritesAreAtomic)
{
    MachineConfig cfg;
    cfg.numCores = 1;
    Machine m(cfg);
    const Addr a = m.allocator().allocLines(2);
    std::vector<uint8_t> ones(100, 1);
    m.addThread([&](ThreadContext &ctx) {
        bool first = true;
        ctx.txRun([&] {
            ctx.writeBytes(a, ones.data(), ones.size());
            if (first) {
                first = false;
                ctx.txAbort();
                return;
            }
        });
    });
    m.run();
    // First attempt aborted: no partial bytes; second committed fully.
    std::vector<uint8_t> out(100);
    m.memory().read(a, out.data(), out.size());
    EXPECT_EQ(out, ones);
    EXPECT_EQ(m.stats().aggregateThreads().txAborted, 1u);
}

TEST(BlockAccess, OputCellsOnOneLineAreIndependent)
{
    // Four 16-byte OPUT cells per line; concurrent puts to different
    // cells of the same reducible line must not interfere.
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.mode = SystemMode::CommTm;
    Machine m(cfg);
    const Label oput = OrderedPut::defineLabel(m);
    const Addr base = m.allocator().allocLines(1);
    for (int i = 0; i < 4; i++)
        OrderedPut::initCell(m, base + 16 * Addr(i));
    for (int t = 0; t < 4; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            OrderedPut cell(base + 16 * Addr(t), oput);
            for (int i = 100; i > 0; i--)
                cell.put(ctx, t * 1000 + i, uint64_t(i));
        });
    }
    m.run();
    for (int t = 0; t < 4; t++) {
        OrderedPut cell(base + 16 * Addr(t), oput);
        const OrderedPut::Pair p = cell.peek(m);
        EXPECT_EQ(p.key, t * 1000 + 1) << "cell " << t;
        EXPECT_EQ(p.value, 1u);
    }
}

} // namespace
} // namespace commtm
