/**
 * @file
 * Randomized fuzzing of the CommQueue and GridClaim library layer,
 * in the style of protocol_fuzz_test: tiny caches for maximal
 * eviction pressure, seed-randomized core counts on both sides of
 * the 128-sharer inline/spill boundary, and both conflict-detection
 * schemes.
 *
 * Checking goes through the replay oracle (docs/ARCHITECTURE.md
 * Sec. 9) and the extracted software models (tests/models/): every
 * structure call records one ModelOp against the transaction that
 * committed it, and the recorded commit order is re-executed
 * serially at the end. Because a committed transaction's reads are
 * valid as of its commit under both eager and lazy detection, serial
 * replay is exact in both modes — strictly stronger than the old
 * inline host-order ledgers, which had to relax per-op checks under
 * lazy (txRun's post-commit latency advance yields, so another
 * thread could commit between our commit and our return).
 * COMMTM_FUZZ_SEED_OFFSET shifts every seed (CI oracle leg).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "lib/comm_queue.h"
#include "lib/grid_claim.h"
#include "models/comm_queue_model.h"
#include "models/grid_claim_model.h"
#include "rt/machine.h"
#include "sim/replay_oracle.h"

namespace commtm {
namespace {

/** CI seed randomization: shifts every fuzz seed, 0 by default. */
uint64_t
fuzzSeedOffset()
{
    static const uint64_t offset = [] {
        const char *s = std::getenv("COMMTM_FUZZ_SEED_OFFSET");
        return s ? std::strtoull(s, nullptr, 10) : 0ull;
    }();
    return offset;
}

/** Tiny-cache machine (see protocol_fuzz_test): geometry from
 *  forCores so >128-core seeds also run the scaled mesh. Commit
 *  recording is on for every fuzz machine (observation-only). */
MachineConfig
fuzzConfig(uint64_t seed, uint32_t cores, ConflictDetection detection)
{
    MachineConfig c = MachineConfig::forCores(cores);
    c.numCores = cores;
    c.mode = SystemMode::CommTm;
    c.conflictDetection = detection;
    c.l1SizeKB = 1;  // 2 sets x 8 ways
    c.l2SizeKB = 2;  // 4 sets x 8 ways
    c.l3SizeKB = 32; // 32 sets x 16 ways
    c.seed = seed;
    c.recordCommits = true;
    // Invariant sweeps (Sec. 10): full density (every commit,
    // abort, and drain-loop exit) up to the 128-sharer inline
    // boundary; the spilled-sharer geometries keep periodic +
    // end-of-run sweeps — a whole-machine sweep per access at
    // 130-256 cores multiplies Debug fuzz time ~10x without adding
    // invariant coverage.
    c.checkInvariants = true;
    if (cores <= 128)
        c.invariantDense = true;

    return c;
}

/** Core count for a fuzz seed: randomized over both sides of the
 *  128-sharer inline/spill boundary, pinned per seed. */
uint32_t
fuzzCores(uint64_t seed)
{
    static constexpr uint32_t kCounts[] = {2,   5,   13,  40,
                                           130, 144, 192, 256};
    return kCounts[seed % 8];
}

/** Fewer ops per thread on big machines keeps total work bounded. */
int
fuzzOps(uint32_t cores, int small_machine_ops)
{
    return cores > 128 ? small_machine_ops / 8 : small_machine_ops;
}

class CommQueueFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>>
{
  protected:
    uint64_t
    seed() const
    {
        return std::get<0>(GetParam()) + fuzzSeedOffset();
    }
    ConflictDetection
    detection() const
    {
        return ConflictDetection(std::get<1>(GetParam()));
    }
};

TEST_P(CommQueueFuzz, QueueMatchesMultisetReference)
{
    const uint32_t kCores = fuzzCores(seed());
    const int kOps = fuzzOps(kCores, 200);
    Machine m(fuzzConfig(seed(), kCores, detection()));
    const Label label = CommQueue::defineLabel(m);
    CommQueue queue(m, label);

    ReplayOracle oracle(m);
    const uint32_t qm = oracle.addModel(
        std::make_unique<CommQueueModel>(&queue));

    // Unique values (thread << 32 | i) make the model multiset an
    // exact check: every dequeued value was enqueued exactly once.
    for (uint32_t t = 0; t < kCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (int i = 0; i < kOps; i++) {
                const uint32_t action = uint32_t(rng.below(100));
                if (action < 55) {
                    const uint64_t v =
                        (uint64_t(t) << 32) | uint64_t(i);
                    queue.enqueue(ctx, v);
                    oracle.recordOp(ctx,
                                    CommQueueModel::enqueue(qm, v));
                } else {
                    uint64_t out = 0;
                    const bool got = queue.dequeue(ctx, &out);
                    oracle.recordOp(
                        ctx, CommQueueModel::dequeue(qm, got, out));
                }
            }
        });
    }
    m.run();

    // Serial re-execution: replay the commit order through the
    // multiset model, then diff final states byte-for-byte.
    std::string diag;
    EXPECT_TRUE(oracle.replaySerial(&diag)) << diag;
    // The run must have exercised the U-state machinery.
    EXPECT_GT(m.stats().machine.reductions, 0u);
}

TEST_P(CommQueueFuzz, GridClaimMatchesTokenReference)
{
    // Offset pick: a different core-count schedule than the queue
    // fuzz, still covering >128-core (spilled-sharer) machines.
    const uint32_t kCores = fuzzCores(seed() + 3);
    const int kOps = fuzzOps(kCores, 150);
    Machine m(fuzzConfig(seed() ^ 0xfeedbeef, kCores, detection()));
    const Label label = GridClaim::defineLabel(m);
    // Capacity 3: multi-token cells give the per-byte splitter
    // something to donate, so gathers move tokens too.
    constexpr uint8_t kCapacity = 3;
    GridClaim grid(m, label, 16, 8, kCapacity);

    ReplayOracle oracle(m);
    const uint32_t gm = oracle.addModel(
        std::make_unique<GridClaimModel>(&grid));

    // held[] drives random releases; the exact-token ledger itself
    // lives in GridClaimModel and is re-derived in commit order,
    // which is exact under BOTH detection schemes (this is the wall
    // that pinned conservation and caught the lazy-mode protocol
    // bugs; see src/mem/coherence.cc markSpec / battle and htm.cc
    // lazyArbitrate).
    std::vector<std::vector<uint32_t>> held(kCores);
    for (uint32_t t = 0; t < kCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (int i = 0; i < kOps; i++) {
                const uint32_t action = uint32_t(rng.below(100));
                if (action < 25 && !held[t].empty()) {
                    const size_t pick = rng.below(held[t].size());
                    const uint32_t cell = held[t][pick];
                    grid.release(ctx, cell);
                    oracle.recordOp(ctx,
                                    GridClaimModel::release(gm, cell));
                    held[t][pick] = held[t].back();
                    held[t].pop_back();
                } else if (action < 75) {
                    const auto cell =
                        uint32_t(rng.below(grid.numCells()));
                    const bool got = grid.claim(ctx, cell);
                    oracle.recordOp(
                        ctx, GridClaimModel::claim(gm, cell, got));
                    if (got)
                        held[t].push_back(cell);
                } else {
                    // Short multi-cell path claim, duplicate-free.
                    const auto base =
                        uint32_t(rng.below(grid.numCells() - 3));
                    const std::vector<uint32_t> cells = {
                        base, base + 1, base + 2};
                    const bool got = grid.claimPath(ctx, cells);
                    oracle.recordOp(ctx, GridClaimModel::claimPath(
                                             gm, cells, got));
                    if (got) {
                        for (uint32_t c : cells)
                            held[t].push_back(c);
                    }
                }
            }
        });
    }
    m.run();

    std::string diag;
    EXPECT_TRUE(oracle.replaySerial(&diag)) << diag;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDetection, CommQueueFuzz,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                         88),
                       ::testing::Values(
                           int(ConflictDetection::Eager),
                           int(ConflictDetection::Lazy))),
    [](const auto &params) {
        return "seed" + std::to_string(std::get<0>(params.param)) +
               (std::get<1>(params.param) ==
                        int(ConflictDetection::Eager)
                    ? "_eager"
                    : "_lazy");
    });

/** Differential cases run eager AND lazy themselves, so they are
 *  parameterized over seeds only. */
class CommQueueDifferential
    : public ::testing::TestWithParam<uint64_t>
{
  protected:
    uint64_t seed() const { return GetParam() + fuzzSeedOffset(); }
};

TEST_P(CommQueueDifferential, EnqueueOnlyEagerLazyAgree)
{
    // Enqueue-only keeps the per-core labeled-op shape stream a pure
    // function of the thread's op sequence (chunk boundaries fall
    // every kChunkCap enqueues on the core's private partial list),
    // so the Shape diff is exact across detection modes; mixed
    // enq/deq outcomes are interleaving-dependent and are covered by
    // the serial-replay cases above instead. The end state is the
    // multiset of all enqueued values — identical by construction,
    // and the check proves neither mode drops or duplicates one.
    //
    // Table-I-sized caches, NOT the tiny fuzz caches: a U eviction
    // forwards a core's partial list to another sharer, resetting
    // its local tail and moving subsequent chunk boundaries — and
    // evictions are timing-dependent, hence detection-mode-dependent.
    // Shape comparability needs the control flow to be a pure
    // function of the op sequence, so the descriptor must stay
    // resident (default caches never evict this working set).
    const uint64_t s = seed();
    const uint32_t kCores = fuzzCores(s + 5);
    const int kOps = fuzzOps(kCores, 96);

    const auto workload = [&](const MachineConfig &cfg) {
        Machine m(cfg);
        const Label label = CommQueue::defineLabel(m);
        CommQueue queue(m, label);
        for (uint32_t t = 0; t < kCores; t++) {
            m.addThread([&, t](ThreadContext &ctx) {
                for (int i = 0; i < kOps; i++) {
                    queue.enqueue(
                        ctx, (uint64_t(t) << 32) | uint64_t(i));
                }
            });
        }
        m.run();
        DifferentialRun out;
        out.log = m.commitLog()->serialize();
        std::vector<uint64_t> vals = queue.peekAll(m);
        std::sort(vals.begin(), vals.end());
        for (uint64_t v : vals) {
            for (int b = 0; b < 8; b++)
                out.endState.push_back(uint8_t(v >> (8 * b)));
        }
        return out;
    };

    MachineConfig base = MachineConfig::forCores(kCores);
    base.numCores = kCores;
    base.mode = SystemMode::CommTm;
    base.seed = s;
    const DifferentialResult res =
        runDifferential(base, workload, DiffMode::Shape);
    EXPECT_TRUE(res.ok) << res.diag;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommQueueDifferential,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

} // namespace
} // namespace commtm
