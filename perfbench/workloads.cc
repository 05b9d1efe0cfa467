/**
 * @file
 * The perfbench workloads. Rows mirror the pinned bench rows they
 * reproduce at the default seed: the closed-loop bodies follow
 * src/apps/micro.cc (runCounterMicro, runListMicro), src/apps/genome.cc
 * (runGenome) and src/apps/vacation.cc (runVacation), and the open-loop
 * row follows bench/svc_list.cc with bench/svc_util.h's burst point.
 * They are rebuilt here, rather than called through the runners,
 * because the benchmark times input generation, Machine construction
 * and frontend attach apart from the simulated run. The pinned
 * cross-check keeps each copy exact, and traced passes also call the
 * genome and vacation runners and require identical counters.
 */

#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "apps/genome.h"
#include "apps/vacation.h"
#include "lib/counter.h"
#include "lib/hash_table.h"
#include "lib/linked_list.h"
#include "rt/frontend.h"
#include "rt/machine.h"
#include "rt/open_loop.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"

namespace perfbench {

using namespace commtm;

namespace {

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Seed of one input stream: the pinned value at seed 0, otherwise a
 *  stream-specific function of the workload seed. */
uint64_t
streamSeed(const Inputs &in, uint64_t pinned, uint64_t stream)
{
    return in.seed == 0 ? pinned : mix(mix(in.seed) + stream);
}

MachineConfig
rowConfig(const Inputs &in, SystemMode mode, uint32_t threads,
          ConflictDetection detection = ConflictDetection::Eager)
{
    MachineConfig cfg = MachineConfig::forCores(threads);
    cfg.mode = mode;
    cfg.conflictDetection = detection;
    cfg.seed = streamSeed(in, cfg.seed, 1);
    return cfg;
}

/** Pinned row label, as bench/bench_util.h builds it. */
std::string
rowLabel(const MachineConfig &cfg, uint32_t threads)
{
    const char *mode =
        cfg.mode == SystemMode::BaselineHtm ? "Baseline" : "CommTM";
    return std::string(mode) + " @" + std::to_string(threads) + "t";
}

uint64_t
opsOf(uint32_t thread, uint32_t threads, uint64_t total)
{
    return total / threads + (thread < total % threads ? 1 : 0);
}

/** True when two runs of one row gave the same simulated counters. */
bool
identical(const StatsSnapshot &a, const StatsSnapshot &b)
{
    const ThreadStats x = a.aggregateThreads();
    const ThreadStats y = b.aggregateThreads();
    return a.runtimeCycles() == b.runtimeCycles() &&
           x.txCommitted == y.txCommitted && x.txAborted == y.txAborted &&
           a.machine.l1Hits == b.machine.l1Hits &&
           a.machine.l1Misses == b.machine.l1Misses;
}

/** Fig. 9 shared counter (runCounterMicro). */
class CounterRow final : public Row
{
  public:
    CounterRow(const Inputs &in, SystemMode mode, uint32_t threads,
               uint64_t total_ops)
        : cfg_(rowConfig(in, mode, threads)), threads_(threads),
          totalOps_(total_ops), pinned_(!in.smoke)
    {
    }

    void
    setup(Pass &pass) override
    {
        pass.timed(Phase::Setup, "rt.machine_ctor",
                   [&] { m_ = std::make_unique<Machine>(cfg_); });
        pass.timed(Phase::Setup, "lib.init", [&] {
            const Label add = CommCounter::defineLabel(*m_);
            counter_ = std::make_unique<CommCounter>(*m_, add);
        });
        pass.timed(Phase::Setup, "rt.frontend", [&] {
            for (uint32_t t = 0; t < threads_; t++) {
                const uint64_t ops = opsOf(t, threads_, totalOps_);
                CommCounter *counter = counter_.get();
                fe_.add([counter, ops](ThreadContext &ctx) {
                    for (uint64_t i = 0; i < ops; i++)
                        counter->add(ctx, 1);
                });
            }
        });
        pass.timed(Phase::Setup, "rt.attach", [&] { fe_.attach(*m_); });
    }

    void
    run(Pass &pass) override
    {
        pass.timed(Phase::Run, "rt.run", [&] { m_->run(); });
        StatsSnapshot stats;
        pass.timed(Phase::Run, "rt.stats", [&] { stats = m_->stats(); });
        pass.timed(Phase::Other, "bench.verify", [&] {
            pass.check(counter_->peek(*m_) == int64_t(totalOps_),
                       "fig09 counter value");
            if (pinned_)
                pass.checkPinned("fig09", rowLabel(cfg_, threads_), stats,
                                 nullptr);
            pass.addStats(stats);
        });
    }

  private:
    MachineConfig cfg_;
    uint32_t threads_;
    uint64_t totalOps_;
    bool pinned_;
    std::unique_ptr<Machine> m_;
    std::unique_ptr<CommCounter> counter_;
    ClosedLoopFrontend fe_;
};

/** Fig. 12 linked list (runListMicro). */
class ListRow final : public Row
{
  public:
    ListRow(const Inputs &in, const char *family, SystemMode mode,
            uint32_t threads, uint64_t total_ops, uint32_t enqueue_pct,
            uint32_t prefill_per_thread)
        : family_(family), cfg_(rowConfig(in, mode, threads)),
          threads_(threads), totalOps_(total_ops),
          enqueuePct_(enqueue_pct), prefill_(prefill_per_thread),
          pinned_(!in.smoke), net_(threads, 0)
    {
    }

    void
    setup(Pass &pass) override
    {
        pass.timed(Phase::Setup, "rt.machine_ctor",
                   [&] { m_ = std::make_unique<Machine>(cfg_); });
        pass.timed(Phase::Setup, "lib.init", [&] {
            const Label label = CommList::defineLabel(*m_);
            list_ = std::make_unique<CommList>(
                *m_, label, cfg_.mode == SystemMode::BaselineHtm);
        });
        pass.timed(Phase::Setup, "rt.frontend", [&] {
            for (uint32_t t = 0; t < threads_; t++)
                fe_.add(body(t, opsOf(t, threads_, totalOps_)));
        });
        pass.timed(Phase::Setup, "rt.attach", [&] { fe_.attach(*m_); });
    }

    void
    run(Pass &pass) override
    {
        pass.timed(Phase::Run, "rt.run", [&] { m_->run(); });
        StatsSnapshot stats;
        pass.timed(Phase::Run, "rt.stats", [&] { stats = m_->stats(); });
        pass.timed(Phase::Other, "bench.verify", [&] {
            int64_t expected = 0;
            for (int64_t n : net_)
                expected += n;
            pass.check(int64_t(list_->peekSize(*m_)) == expected,
                       family_ + " list size");
            if (pinned_)
                pass.checkPinned(family_, rowLabel(cfg_, threads_), stats,
                                 nullptr);
            pass.addStats(stats);
        });
    }

  private:
    ClosedLoopFrontend::Body
    body(uint32_t t, uint64_t ops)
    {
        return [this, t, ops](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (uint32_t i = 0; i < prefill_; i++) {
                list_->enqueue(ctx, (uint64_t(t) << 32) | (1u << 30) | i);
                net_[t]++;
            }
            for (uint64_t i = 0; i < ops; i++) {
                if (rng.below(100) < enqueuePct_) {
                    list_->enqueue(ctx, (uint64_t(t) << 32) | i);
                    net_[t]++;
                } else {
                    uint64_t value;
                    if (list_->dequeue(ctx, &value))
                        net_[t]--;
                }
                ctx.compute(8);
            }
        };
    }

    std::string family_;
    MachineConfig cfg_;
    uint32_t threads_;
    uint64_t totalOps_;
    uint32_t enqueuePct_;
    uint32_t prefill_;
    bool pinned_;
    std::vector<int64_t> net_; //!< enqueues minus dequeues, per thread
    std::unique_ptr<Machine> m_;
    std::unique_ptr<CommList> list_;
    ClosedLoopFrontend fe_;
};

/** The STAMP app threads of fig16: 128 on the Table I machine. */
constexpr uint32_t kAppThreads = 128;

/**
 * Fig. 16 genome (runGenome). Set-up is the host-side input and
 * reference, the Machine, the labels, hash table and segment array,
 * and the thread bodies; the run is the three simulated phases.
 */
class GenomeRow final : public Row
{
  public:
    GenomeRow(const Inputs &in, const GenomeConfig &app)
        : cfg_(rowConfig(in, SystemMode::CommTm, kAppThreads)), app_(app),
          pinned_(!in.smoke), compare_(in.compareRuns)
    {
    }

    void
    setup(Pass &pass) override
    {
        pass.timed(Phase::Setup, "apps.input", [&] { makeInput(); });
        pass.timed(Phase::Setup, "rt.machine_ctor",
                   [&] { m_ = std::make_unique<Machine>(cfg_); });
        pass.timed(Phase::Setup, "lib.init", [&] { initMemory(); });
        pass.timed(Phase::Setup, "rt.frontend", [&] {
            for (uint32_t t = 0; t < kAppThreads; t++)
                fe_.add(body(t));
        });
        pass.timed(Phase::Setup, "rt.attach", [&] { fe_.attach(*m_); });
    }

    void
    run(Pass &pass) override
    {
        pass.timed(Phase::Run, "rt.run", [&] { m_->run(); });
        StatsSnapshot stats;
        pass.timed(Phase::Run, "rt.stats", [&] { stats = m_->stats(); });
        pass.timed(Phase::Other, "bench.verify", [&] {
            const LineData line =
                m_->memSys().debugReducedValue(lineAddr(linkCount_));
            int64_t linked;
            std::memcpy(&linked, line.data() + lineOffset(linkCount_),
                        sizeof(linked));
            pass.check(table_->peekSize(*m_) == expectedUnique_ &&
                           uint64_t(linked) == expectedLinked_,
                       "fig16_genome result validation");
            if (pinned_)
                pass.checkPinned("fig16_genome",
                                 rowLabel(cfg_, kAppThreads), stats,
                                 nullptr);
            pass.addStats(stats);
        });
        if (!compare_)
            return;
        GenomeResult r;
        pass.timed(Phase::Other, "apps.run",
                   [&] { r = runGenome(cfg_, kAppThreads, app_); });
        pass.check(r.valid() && identical(r.stats, stats),
                   "runGenome differs from the rebuilt genome row");
    }

  private:
    /** Segment start positions sampled with duplicates, and the
     *  host-side unique and linked counts they must produce. */
    void
    makeInput()
    {
        Rng rng(app_.seed);
        segments_.resize(app_.numSegments);
        for (uint64_t &seg : segments_)
            seg = rng.below(app_.genomeLength) + 1; // keys are nonzero
        const std::unordered_set<uint64_t> unique(segments_.begin(),
                                                  segments_.end());
        expectedUnique_ = unique.size();
        for (uint64_t pos : unique) {
            if (unique.count(pos + overlap()))
                expectedLinked_++;
        }
    }

    /** Labels, table and arrays in runGenome's allocation order. */
    void
    initMemory()
    {
        Machine &m = *m_;
        const Label bounded = BoundedCounter::defineLabel(m);
        add_ = m.labels().define(labels::makeAdd<int64_t>("ADD"));
        table_ = std::make_unique<ResizableHashMap>(m, bounded, 256, 1.0);
        segArr_ = m.allocator().alloc(8 * Addr(app_.numSegments),
                                      kLineSize);
        for (uint32_t i = 0; i < app_.numSegments; i++)
            m.memory().write<uint64_t>(segArr_ + 8 * Addr(i),
                                       segments_[i]);
        links_ = m.allocator().alloc(
            8 * Addr(app_.genomeLength + app_.segmentLength + 2),
            kLineSize);
        linkCount_ = m.allocator().allocLines(1);
    }

    uint32_t overlap() const { return app_.segmentLength / 2; }

    ClosedLoopFrontend::Body
    body(uint32_t t)
    {
        return [this, t](ThreadContext &ctx) {
            const uint32_t n = app_.numSegments;
            const uint32_t lo = uint32_t(uint64_t(n) * t / kAppThreads);
            const uint32_t hi =
                uint32_t(uint64_t(n) * (t + 1) / kAppThreads);
            // Phase 1: deduplicate segments into the table.
            std::vector<uint64_t> mine;
            for (uint32_t i = lo; i < hi; i++) {
                uint64_t pos = 0;
                ctx.txRun([&] {
                    pos = ctx.read<uint64_t>(segArr_ + 8 * Addr(i));
                });
                if (table_->insert(ctx, pos, pos))
                    mine.push_back(pos);
                ctx.compute(app_.segmentLength / 8);
            }
            ctx.barrier();
            // Phase 2: link segments that overlap by half a segment.
            int64_t my_links = 0;
            for (uint64_t pos : mine) {
                uint64_t succ = 0;
                if (table_->lookup(ctx, pos + overlap(), &succ)) {
                    ctx.txRun([&] {
                        ctx.write<uint64_t>(links_ + 8 * pos, succ);
                    });
                    my_links++;
                }
                ctx.compute(app_.segmentLength / 8);
            }
            ctx.txRun([&] {
                // lint: allow-tx-aborted (labeled RMW)
                const int64_t cur =
                    ctx.readLabeled<int64_t>(linkCount_, add_);
                ctx.writeLabeled<int64_t>(linkCount_, add_,
                                          cur + my_links);
            });
            ctx.barrier();
            // Phase 3: walk one assembled chain.
            if (t == 0 && !mine.empty()) {
                uint64_t pos = mine.front();
                for (uint32_t steps = 0; steps < app_.genomeLength;
                     steps++) {
                    uint64_t next = 0;
                    ctx.txRun([&] {
                        next = ctx.read<uint64_t>(links_ + 8 * pos);
                    });
                    if (next == 0)
                        break;
                    pos = next;
                }
            }
        };
    }

    MachineConfig cfg_;
    GenomeConfig app_;
    bool pinned_;
    bool compare_;
    std::vector<uint64_t> segments_;
    uint64_t expectedUnique_ = 0;
    uint64_t expectedLinked_ = 0;
    std::unique_ptr<Machine> m_;
    Label add_{};
    std::unique_ptr<ResizableHashMap> table_;
    Addr segArr_ = 0;
    Addr links_ = 0;
    Addr linkCount_ = 0;
    ClosedLoopFrontend fe_;
};

/**
 * Fig. 16 vacation (runVacation). Set-up is the host-side prices, the
 * Machine, the label and four hash tables, and the thread bodies; the
 * run is the simulated table population and client tasks.
 */
class VacationRow final : public Row
{
  public:
    VacationRow(const Inputs &in, const VacationConfig &app)
        : cfg_(rowConfig(in, SystemMode::CommTm, kAppThreads)), app_(app),
          pinned_(!in.smoke), compare_(in.compareRuns),
          reservations_(kAppThreads, 0), sold_(kAppThreads, 0),
          added_(kAppThreads)
    {
    }

    void
    setup(Pass &pass) override
    {
        pass.timed(Phase::Setup, "apps.input", [&] {
            Rng rng(app_.seed);
            prices_.resize(size_t(app_.relations) * kTables);
            for (uint32_t &p : prices_)
                p = 50 + uint32_t(rng.below(450));
        });
        pass.timed(Phase::Setup, "rt.machine_ctor",
                   [&] { m_ = std::make_unique<Machine>(cfg_); });
        pass.timed(Phase::Setup, "lib.init", [&] {
            const Label bounded = BoundedCounter::defineLabel(*m_);
            for (uint32_t i = 0; i < kTables; i++)
                tables_.push_back(std::make_unique<ResizableHashMap>(
                    *m_, bounded, 1024, 1.5));
            customers_ = std::make_unique<ResizableHashMap>(*m_, bounded,
                                                            256, 1.5);
        });
        pass.timed(Phase::Setup, "rt.frontend", [&] {
            for (uint32_t t = 0; t < kAppThreads; t++)
                fe_.add(body(t));
        });
        pass.timed(Phase::Setup, "rt.attach", [&] { fe_.attach(*m_); });
    }

    void
    run(Pass &pass) override
    {
        pass.timed(Phase::Run, "rt.run", [&] { m_->run(); });
        StatsSnapshot stats;
        pass.timed(Phase::Run, "rt.stats", [&] { stats = m_->stats(); });
        pass.timed(Phase::Other, "bench.verify", [&] {
            pass.check(conserved(), "fig16_vacation result validation");
            if (pinned_)
                pass.checkPinned("fig16_vacation",
                                 rowLabel(cfg_, kAppThreads), stats,
                                 nullptr);
            pass.addStats(stats);
        });
        if (!compare_)
            return;
        VacationResult r;
        pass.timed(Phase::Other, "apps.run",
                   [&] { r = runVacation(cfg_, kAppThreads, app_); });
        pass.check(r.valid() && identical(r.stats, stats),
                   "runVacation differs from the rebuilt vacation row");
    }

  private:
    static constexpr uint32_t kTables = 3; // cars, rooms, flights
    static constexpr uint32_t kInitialFree = 100;

    static uint64_t
    pack(uint32_t free, uint32_t price)
    {
        return (uint64_t(price) << 32) | free;
    }
    static uint32_t freeOf(uint64_t v) { return uint32_t(v); }
    static uint32_t priceOf(uint64_t v) { return uint32_t(v >> 32); }

    /** Units sold equal reservations made and free units consumed. */
    bool
    conserved() const
    {
        int64_t reserved = 0, sold = 0, added = 0;
        for (uint32_t t = 0; t < kAppThreads; t++) {
            reserved += reservations_[t];
            sold += sold_[t];
            added += int64_t(added_[t].size()) * kInitialFree;
        }
        const int64_t initial =
            int64_t(kTables) * app_.relations * kInitialFree + added;
        int64_t left = 0;
        const auto count = [&](uint32_t tab, uint64_t id) {
            uint64_t value = 0;
            if (tables_[tab]->peekLookup(*m_, id, &value))
                left += freeOf(value);
        };
        for (uint32_t tab = 0; tab < kTables; tab++) {
            for (uint64_t id = 1; id <= app_.relations; id++)
                count(tab, id);
        }
        for (const std::vector<uint64_t> &ids : added_) {
            for (uint64_t tagged : ids)
                count(uint32_t(tagged >> 56),
                      tagged & 0x00ffffffffffffffull);
        }
        return left + sold == initial && reserved == sold;
    }

    ClosedLoopFrontend::Body
    body(uint32_t t)
    {
        return [this, t](ThreadContext &ctx) {
            const VacationConfig &a = app_;
            // Populate: threads partition the initial row inserts.
            const uint32_t r_lo =
                uint32_t(uint64_t(a.relations) * t / kAppThreads);
            const uint32_t r_hi =
                uint32_t(uint64_t(a.relations) * (t + 1) / kAppThreads);
            for (uint32_t tab = 0; tab < kTables; tab++) {
                for (uint32_t r = r_lo; r < r_hi; r++)
                    tables_[tab]->insert(
                        ctx, r + 1,
                        pack(kInitialFree,
                             prices_[size_t(tab) * a.relations + r]));
            }
            ctx.barrier();

            const uint32_t range =
                std::max(1u, a.relations * a.queryRangePct / 100);
            const uint32_t customers = std::max(1u, a.numTasks / 4);
            const uint32_t lo =
                uint32_t(uint64_t(a.numTasks) * t / kAppThreads);
            const uint32_t hi =
                uint32_t(uint64_t(a.numTasks) * (t + 1) / kAppThreads);
            Rng &rng = ctx.rng();
            for (uint32_t task = lo; task < hi; task++) {
                const uint32_t action = uint32_t(rng.below(100));
                if (action < a.userPct) {
                    // Reserve the cheapest available of a few items.
                    const uint32_t tab = uint32_t(rng.below(kTables));
                    uint64_t best_id = 0;
                    uint32_t best_price = ~0u;
                    for (uint32_t q = 0; q < a.queriesPerTask; q++) {
                        const uint64_t id = 1 + rng.below(range);
                        uint64_t value = 0;
                        if (tables_[tab]->lookup(ctx, id, &value) &&
                            freeOf(value) > 0 &&
                            priceOf(value) < best_price) {
                            best_price = priceOf(value);
                            best_id = id;
                        }
                        ctx.compute(16);
                    }
                    if (best_id == 0)
                        continue;
                    const bool got = tables_[tab]->updateWith(
                        ctx, best_id, [](uint64_t &v) {
                            if (freeOf(v) == 0)
                                return false;
                            v = pack(freeOf(v) - 1, priceOf(v));
                            return true;
                        });
                    if (!got)
                        continue;
                    sold_[t]++;
                    reservations_[t]++;
                    const uint64_t cust = 1 + rng.below(customers);
                    if (!customers_->insert(ctx, cust, 1)) {
                        customers_->updateWith(ctx, cust, [](uint64_t &v) {
                            v++;
                            return true;
                        });
                    }
                } else if (action < a.userPct + 5) {
                    customers_->erase(ctx, 1 + rng.below(customers));
                } else {
                    // Add a fresh row to a random table.
                    const uint32_t tab = uint32_t(rng.below(kTables));
                    const uint64_t id = a.relations + 1 +
                                        uint64_t(t) * a.numTasks + task;
                    if (tables_[tab]->insert(
                            ctx, id,
                            pack(kInitialFree,
                                 50 + uint32_t(rng.below(450)))))
                        added_[t].push_back((uint64_t(tab) << 56) | id);
                }
                ctx.compute(32);
            }
        };
    }

    MachineConfig cfg_;
    VacationConfig app_;
    bool pinned_;
    bool compare_;
    std::vector<uint32_t> prices_;
    // Host-side tallies per thread.
    std::vector<int64_t> reservations_;
    std::vector<int64_t> sold_;
    std::vector<std::vector<uint64_t>> added_; //!< (table << 56) | id
    std::unique_ptr<Machine> m_;
    std::vector<std::unique_ptr<ResizableHashMap>> tables_;
    std::unique_ptr<ResizableHashMap> customers_;
    ClosedLoopFrontend fe_;
};

// bench/svc_list.cc at bench/svc_util.h's burst point.
constexpr uint32_t kSvcThreads = 128;
constexpr uint64_t kSvcLists = 8;
constexpr uint32_t kSvcEnqueuePct = 70;
constexpr uint64_t kSvcRequestWork = 48;  // non-tx cycles per request
constexpr double kSvcServiceCycles = 300; // nominal uncontended latency
constexpr uint32_t kSvcBurstLoadPct = 50;
/** Capture-and-replay rows per capture_replay pass. */
constexpr uint64_t kCaptureRows = 32;

OpenLoopConfig
svcConfig(const Inputs &in)
{
    OpenLoopConfig cfg;
    cfg.pattern.kind = ArrivalPattern::Kind::Bursty;
    cfg.pattern.meanGap = kSvcServiceCycles * 100.0 / kSvcBurstLoadPct;
    cfg.pattern.burstFactor = 8.0;
    cfg.pattern.onMean = 2.0 * cfg.pattern.meanGap;
    cfg.pattern.offMean = 6.0 * cfg.pattern.meanGap;
    cfg.arrivalsPerThread = 48;
    cfg.warmupPerThread = 8;
    cfg.queueDepth = 16;
    cfg.zipfItems = kSvcLists;
    cfg.zipfS = 0.99;
    cfg.seed = streamSeed(in, cfg.seed, 2);
    return cfg;
}

/** The svc_list service on one machine: Zipf-keyed lists plus the
 *  open-loop frontend whose requests enqueue or dequeue. */
struct ListService {
    std::unique_ptr<Machine> m;
    std::vector<std::unique_ptr<CommList>> lists;
    std::vector<int64_t> net; //!< enqueues minus dequeues, per thread
    std::vector<uint64_t> seq;
    std::unique_ptr<OpenLoopFrontend> fe;

    void
    setup(Pass &pass, const MachineConfig &cfg, const OpenLoopConfig &ol)
    {
        pass.timed(Phase::Setup, "rt.machine_ctor",
                   [&] { m = std::make_unique<Machine>(cfg); });
        pass.timed(Phase::Setup, "lib.init", [&] { initLists(); });
        pass.timed(Phase::Setup, "rt.frontend",
                   [&] { initFrontend(ol); });
        pass.timed(Phase::Setup, "rt.attach", [&] { fe->attach(*m); });
    }

    void
    initFrontend(const OpenLoopConfig &ol)
    {
        net.assign(kSvcThreads, 0);
        seq.assign(kSvcThreads, 0);
        fe = std::make_unique<OpenLoopFrontend>(
            ol, kSvcThreads,
            [this](ThreadContext &ctx, uint64_t key) { serve(ctx, key); });
    }

    /** Label and lists in the allocation order of the capture run, so
     *  a replay machine sees the same addresses. */
    void
    initLists()
    {
        const Label label = CommList::defineLabel(*m);
        for (uint64_t l = 0; l < kSvcLists; l++)
            lists.push_back(std::make_unique<CommList>(*m, label));
    }

    void
    serve(ThreadContext &ctx, uint64_t key)
    {
        ctx.compute(kSvcRequestWork);
        const uint32_t t = ctx.id();
        if (ctx.rng().below(100) < kSvcEnqueuePct) {
            lists[key]->enqueue(ctx, (uint64_t(t) << 32) | seq[t]++);
            net[t]++;
        } else {
            uint64_t value;
            if (lists[key]->dequeue(ctx, &value))
                net[t]--;
        }
    }

    bool
    conserved() const
    {
        int64_t remaining = 0;
        for (const auto &list : lists)
            remaining += int64_t(list->peekSize(*m));
        int64_t expected = 0;
        for (int64_t n : net)
            expected += n;
        return remaining == expected;
    }
};

/**
 * svc_list CommTM burst @128t captured with all three observers on
 * (commit log, trace capture, invariant checker), then serialized,
 * parsed and replayed on the lazy Table I machine.
 */
class CaptureReplayRow final : public Row
{
  public:
    CaptureReplayRow(const Inputs &in, bool pinned)
        : cfg_(rowConfig(in, SystemMode::CommTm, kSvcThreads)),
          replayCfg_(rowConfig(in, SystemMode::CommTm, kSvcThreads,
                               ConflictDetection::Lazy)),
          ol_(svcConfig(in)), pinned_(pinned), compare_(in.compareRuns)
    {
    }

    void
    setup(Pass &pass) override
    {
        MachineConfig cfg = cfg_;
        cfg.recordCommits = true;
        cfg.captureTrace = true;
        cfg.checkInvariants = true;
        capture_.setup(pass, cfg, ol_);
        pass.timed(Phase::Setup, "rt.machine_ctor", [&] {
            replay_.m = std::make_unique<Machine>(replayCfg_);
        });
        pass.timed(Phase::Setup, "lib.init", [&] { replay_.initLists(); });
    }

    void
    run(Pass &pass) override
    {
        Machine &m = *capture_.m;
        pass.timed(Phase::Run, "rt.run", [&] { m.run(); });
        StatsSnapshot stats;
        pass.timed(Phase::Run, "rt.stats", [&] { stats = m.stats(); });
        std::vector<uint8_t> bytes;
        pass.timed(Phase::Run, "trace.serialize",
                   [&] { bytes = m.traceWriter()->serialize(); });
        bool parsed = false;
        std::string err;
        pass.timed(Phase::Run, "trace.parse", [&] {
            parsed = TraceReader::parse(bytes, &trace_, &err);
        });
        pass.check(parsed, "capture parse: " + err);
        if (!parsed)
            return;
        // Replay set-up follows the first simulated cycle, so it is
        // part of the replay, not set-up time.
        pass.timed(Phase::Run, "trace.replay", [&] {
            replayFe_ = std::make_unique<ReplayFrontend>(trace_);
            replayFe_->attach(*replay_.m);
            replay_.m->run();
        });
        StatsSnapshot replayed;
        pass.timed(Phase::Run, "rt.stats",
                   [&] { replayed = replay_.m->stats(); });
        pass.timed(Phase::Other, "bench.verify",
                   [&] { verify(pass, stats, replayed, bytes); });
        if (compare_)
            observersOff(pass, stats);
    }

  private:
    void
    verify(Pass &pass, const StatsSnapshot &stats,
           const StatsSnapshot &replayed, const std::vector<uint8_t> &bytes)
    {
        Machine &m = *capture_.m;
        const ServiceStats svc = capture_.fe->totalService();
        const LatencyHistogram hist = capture_.fe->mergedMeasure();
        const uint64_t arrivals =
            uint64_t(kSvcThreads) * ol_.arrivalsPerThread;
        const ThreadStats agg = stats.aggregateThreads();
        pass.check(capture_.conserved(), "svc_list list conservation");
        pass.check(svc.admitted + svc.dropped == arrivals,
                   "open loop: admitted + dropped != arrivals");
        pass.check(svc.completed == svc.admitted,
                   "open loop: admitted requests left unserved");
        pass.check(m.commitLog()->records().size() == agg.txCommitted,
                   "commit log misses commits");
        pass.check(m.invariantChecker()->sweeps() > 0,
                   "invariant checker never swept");
        pass.check(replayed.aggregateThreads().txCommitted ==
                       trace_.commitOrder.size(),
                   "replay commits != captured transactions");
        if (pinned_)
            pass.checkPinned("svc_list", "CommTM burst @128t", stats,
                             &hist);
        pass.addStats(stats);
        pass.addStats(replayed);
        Counts &c = pass.counts();
        c.arrivals += arrivals;
        c.admitted += svc.admitted;
        c.dropped += svc.dropped;
        c.qdepthMax = std::max(c.qdepthMax, svc.maxDepth);
        c.latency.merge(hist);
        const TraceWriter &w = *m.traceWriter();
        for (uint32_t t = 0; t < w.numThreads(); t++)
            c.traceRecords += w.recordsOf(CoreId(t));
        c.traceBytes += bytes.size();
    }

    /** The same capture row with every observer off: host time for
     *  sim.observer_overhead_frac, and proof that observation leaves
     *  the simulated counters bit-identical. */
    void
    observersOff(Pass &pass, const StatsSnapshot &observed)
    {
        // Built untimed, so the row's set-up spans stay its own.
        ListService plain;
        plain.m = std::make_unique<Machine>(cfg_);
        plain.initLists();
        plain.initFrontend(ol_);
        plain.fe->attach(*plain.m);
        pass.timed(Phase::Other, "sim.observers_off_run",
                   [&] { plain.m->run(); });
        pass.check(identical(plain.m->stats(), observed),
                   "observers changed the simulated counters");
    }

    MachineConfig cfg_;
    MachineConfig replayCfg_;
    OpenLoopConfig ol_;
    bool pinned_;
    bool compare_;
    ListService capture_;
    // The replay machine's threads read the parsed capture through the
    // frontend, so both outlive it.
    Trace trace_;
    std::unique_ptr<ReplayFrontend> replayFe_;
    ListService replay_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "abort_storm", "commutative_scale", "stamp_gather",
        "capture_replay"};
    return names;
}

std::vector<std::unique_ptr<Row>>
makeRows(const std::string &workload, const Inputs &in)
{
    // Smoke mode shrinks op counts and app inputs, not geometry.
    const uint64_t shrink = in.smoke ? 8 : 1;
    std::vector<std::unique_ptr<Row>> rows;
    if (workload == "abort_storm") {
        rows.push_back(std::make_unique<ListRow>(
            in, "fig12a", SystemMode::BaselineHtm, 128, 64000 / shrink,
            100, 0));
    } else if (workload == "commutative_scale") {
        rows.push_back(std::make_unique<CounterRow>(
            in, SystemMode::CommTm, 256, 24000 / shrink));
        rows.push_back(std::make_unique<ListRow>(
            in, "fig12a", SystemMode::CommTm, 256, 64000 / shrink, 100,
            0));
        rows.push_back(std::make_unique<ListRow>(
            in, "fig12b", SystemMode::CommTm, 256, 64000 / shrink, 50,
            16));
    } else if (workload == "stamp_gather") {
        // Inputs of bench/fig16_genome.cc and fig16_vacation.cc. The
        // workload seed reaches these rows through the machine seed
        // (vacation's client tasks and every backoff draw); the app
        // input seeds stay pinned.
        GenomeConfig genome;
        genome.genomeLength = uint32_t(8192 / shrink);
        genome.numSegments = uint32_t(16384 / shrink);
        rows.push_back(std::make_unique<GenomeRow>(in, genome));
        VacationConfig vacation;
        vacation.relations = uint32_t(2048 / shrink);
        vacation.numTasks = uint32_t(6144 / shrink);
        rows.push_back(std::make_unique<VacationRow>(in, vacation));
    } else if (workload == "capture_replay") {
        // One capture row is ~15 ms, and its simulated length swings
        // with the arrival draw; 32 rows per pass average that out.
        // Row 0 takes the workload seed itself, so seed 0 runs the
        // pinned row. Smoke mode keeps the rows whole.
        for (uint64_t r = 0; r < kCaptureRows; r++) {
            Inputs sub = in;
            if (r > 0)
                sub.seed = mix(in.seed * kCaptureRows + r) | 1;
            rows.push_back(std::make_unique<CaptureReplayRow>(sub, r == 0));
        }
    }
    return rows;
}

MachineConfig
probeConfig(const std::string &workload)
{
    MachineConfig cfg =
        MachineConfig::forCores(workload == "commutative_scale" ? 256 : 128);
    cfg.mode = SystemMode::CommTm;
    return cfg;
}

} // namespace perfbench
