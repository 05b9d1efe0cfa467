/**
 * @file
 * Replay-oracle tests (docs/ARCHITECTURE.md Sec. 9). The two halves
 * of the oracle are each shown working AND able to fail: a known-good
 * eager/lazy pair passes the differential (under the strict PerCore
 * policy — the workload uses constant-operand blind stores, so even
 * the value digests are mode-independent), and an injected one-byte
 * operand flip or an extra lazy-only op is caught; serial
 * re-execution passes on a known-good counter run and catches a
 * one-byte arg flip injected at replay time, for both an update op
 * and a recorded read. TopK and OrderedPut (including key ties) round
 * out the model coverage the fuzz tests don't reach.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lib/ordered_put.h"
#include "lib/topk.h"
#include "models/counter_model.h"
#include "models/ordered_put_model.h"
#include "models/topk_model.h"
#include "rt/machine.h"
#include "sim/replay_oracle.h"

namespace commtm {
namespace {

MachineConfig
smallConfig(uint32_t cores)
{
    MachineConfig c = MachineConfig::forCores(cores);
    c.numCores = cores;
    c.mode = SystemMode::CommTm;
    c.conflictDetection = ConflictDetection::Eager;
    c.seed = 7;
    c.recordCommits = true;
    return c;
}

/**
 * Differential workload: every core commits one blind labeled store
 * of the constant 5 (replacing its identity partial), so the reduced
 * cell is 5 * numCores under either detection mode and even the
 * labeledValues digests are mode-independent — the one workload shape
 * where DiffMode::PerCore is sound across modes.
 */
DifferentialRun
blindStoreRun(const MachineConfig &cfg, bool flip_eager_operand,
              bool extra_lazy_op)
{
    Machine m(cfg);
    const Label add =
        m.labels().define(labels::makeAdd<int64_t>("ADD"));
    const Addr cell = m.allocator().allocLines(1);
    if (flip_eager_operand &&
        cfg.conflictDetection == ConflictDetection::Eager) {
        // Corrupt the recorded digest (not the store itself) on the
        // eager side only: core 0, first commit, first op, byte 0.
        m.commitLog()->setTestOperandFlip(0, 0, 0, 0);
    }
    const bool extra =
        extra_lazy_op &&
        cfg.conflictDetection == ConflictDetection::Lazy;
    for (uint32_t t = 0; t < cfg.numCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            ctx.txRun(
                [&] { ctx.writeLabeled<int64_t>(cell, add, 5); });
            if (t == 0 && extra) {
                // A lazy-only committed transaction: the per-core
                // commit streams can no longer line up.
                ctx.txRun([&] {
                    (void)ctx.readLabeled<int64_t>(cell, add);
                });
            }
        });
    }
    m.run();
    DifferentialRun out;
    out.log = *m.commitLog();
    const LineData line = m.memSys().debugReducedValue(lineAddr(cell));
    out.endState.assign(line.data(), line.data() + sizeof(int64_t));
    return out;
}

TEST(ReplayOracle, KnownGoodEagerLazyPairPassesDifferential)
{
    const DifferentialResult res = runDifferential(
        smallConfig(4),
        [](const MachineConfig &cfg) {
            return blindStoreRun(cfg, false, false);
        },
        DiffMode::PerCore);
    EXPECT_TRUE(res.ok) << res.diag;
}

TEST(ReplayOracle, DifferentialCatchesOperandByteFlip)
{
    // The flip only perturbs the eager side's recorded digest; the
    // simulated stores (and hence end states) stay identical, so the
    // failure must come from the labeledValues comparison.
    const DifferentialResult res = runDifferential(
        smallConfig(4),
        [](const MachineConfig &cfg) {
            return blindStoreRun(cfg, true, false);
        },
        DiffMode::PerCore);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.diag.find("eager vs lazy commit logs"),
              std::string::npos)
        << res.diag;
    EXPECT_NE(res.diag.find("labeledValues"), std::string::npos)
        << res.diag;
}

TEST(ReplayOracle, DifferentialCatchesExtraLazyCommit)
{
    const DifferentialResult res = runDifferential(
        smallConfig(4),
        [](const MachineConfig &cfg) {
            return blindStoreRun(cfg, false, true);
        },
        DiffMode::PerCore);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.diag.find("core 0 committed 1 vs 2 transactions"),
              std::string::npos)
        << res.diag;
}

/**
 * Deterministic four-core counter workload with the serial oracle
 * attached: 10 round-robin increments per core, then core 0 commits
 * a conventional read of counter 0 after a barrier (so the read is
 * its commit #10 and observes the full total). Optional arg flips
 * are injected at replay time, never into the run itself.
 */
bool
counterReplay(bool flip_add_delta, bool flip_read_value,
              std::string *diag)
{
    constexpr uint32_t kCores = 4;
    constexpr uint32_t kCounters = 4;
    Machine m(smallConfig(kCores));
    const Label add =
        m.labels().define(labels::makeAdd<int64_t>("ADD"));
    std::vector<Addr> counters;
    for (uint32_t i = 0; i < kCounters; i++)
        counters.push_back(m.allocator().allocLines(1));

    ReplayOracle oracle(m);
    const uint32_t cm =
        oracle.addModel(std::make_unique<CounterModel>(counters));

    for (uint32_t t = 0; t < kCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            for (int i = 0; i < 10; i++) {
                const uint32_t c = (t + uint32_t(i)) % kCounters;
                const Addr a = counters[c];
                ctx.txRun([&] {
                    const int64_t v = ctx.readLabeled<int64_t>(a, add);
                    ctx.writeLabeled<int64_t>(a, add, v + 1);
                });
                oracle.recordOp(ctx, CounterModel::add(cm, c, 1));
            }
            ctx.barrier();
            if (t == 0) {
                int64_t v = 0;
                ctx.txRun([&] { v = ctx.read<int64_t>(counters[0]); });
                oracle.recordOp(ctx, CounterModel::read(cm, 0, v));
            }
        });
    }
    m.run();

    if (flip_add_delta)
        oracle.setTestArgFlip(1, 2, 0, 1, 0); // core 1 commit #2
    if (flip_read_value)
        oracle.setTestArgFlip(0, 10, 0, 1, 0); // core 0's read
    return oracle.replaySerial(diag);
}

TEST(ReplayOracle, SerialReplayPassesOnKnownGoodRun)
{
    std::string diag;
    EXPECT_TRUE(counterReplay(false, false, &diag)) << diag;
}

TEST(ReplayOracle, SerialReplayCatchesFlippedUpdateOperand)
{
    // Flipping an increment's delta (1 -> 0) leaves every per-op
    // check satisfiable but must show up in the final-state diff.
    std::string diag;
    EXPECT_FALSE(counterReplay(true, false, &diag));
    EXPECT_NE(diag.find("model 'counter'"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("final state differs"), std::string::npos)
        << diag;
}

TEST(ReplayOracle, SerialReplayCatchesFlippedReadValue)
{
    // Flipping the recorded observation of a committed read must be
    // caught at the exact commit, with the op named.
    std::string diag;
    EXPECT_FALSE(counterReplay(false, true, &diag));
    EXPECT_NE(diag.find("core 0 commit #10"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("read of counter 0"), std::string::npos)
        << diag;
}

TEST(ReplayOracle, TopKAndOrderedPutModelsReplaySerially)
{
    constexpr uint32_t kCores = 4;
    Machine m(smallConfig(kCores));
    const Label tk_label = TopK::defineLabel(m, 6);
    TopK topk(m, tk_label, 6);
    const Label op_label = OrderedPut::defineLabel(m);
    OrderedPut cell(m, op_label);

    ReplayOracle oracle(m);
    const uint32_t tm =
        oracle.addModel(std::make_unique<TopKModel>(&topk));
    const uint32_t om =
        oracle.addModel(std::make_unique<OrderedPutModel>(&cell));

    for (uint32_t t = 0; t < kCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            // Host-side Rng (not ctx.rng()): deterministic per
            // thread, independent of abort backoff draws.
            Rng rng(1000 + t);
            for (int i = 0; i < 12; i++) {
                const int64_t key = int64_t(rng.below(40));
                topk.insert(ctx, key);
                oracle.recordOp(ctx, TopKModel::insert(tm, key));
                // Keys 2..5 force cross-thread minimum-key ties;
                // OrderedPutModel accepts any tied value.
                const int64_t pkey = int64_t(2 + rng.below(4));
                const uint64_t pval =
                    (uint64_t(t) << 32) | uint64_t(i);
                cell.put(ctx, pkey, pval);
                oracle.recordOp(
                    ctx, OrderedPutModel::put(om, pkey, pval));
            }
        });
    }
    m.run();

    std::string diag;
    EXPECT_TRUE(oracle.replaySerial(&diag)) << diag;
}

} // namespace
} // namespace commtm
