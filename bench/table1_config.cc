/**
 * @file
 * Table I: configuration of the simulated system. One row reports the
 * machine parameters the simulator models as counters, followed by
 * the raw latencies of the hierarchy as the simulator realizes them
 * (L1 hit, L3/directory, memory access cycles).
 */

#include "bench_util.h"

#include "rt/machine.h"

namespace commtm {
namespace benchutil {
namespace {

/** The Table I parameters of the default machine. */
std::vector<Counter>
configCounters()
{
    const MachineConfig c;
    return {
        {"cores", c.numCores},
        {"l1_KB", c.l1SizeKB},
        {"l1_ways", c.l1Ways},
        {"l2_KB", c.l2SizeKB},
        {"l2_ways", c.l2Ways},
        {"l2_cyc", double(c.l2Latency)},
        {"l3_MB", c.l3SizeKB / 1024},
        {"l3_banks", c.numTiles},
        {"l3_ways", c.l3Ways},
        {"l3_bank_cyc", double(c.l3BankLatency)},
        {"line_B", kLineSize},
        {"hw_labels", c.hwLabels},
        {"mesh_dim", c.meshDim},
        {"router_cyc", double(c.routerLatency)},
        {"link_cyc", double(c.linkLatency)},
        {"mem_ctrls", c.memControllers},
        {"mem_latency_cyc", double(c.memLatency)},
    };
}

/** Measure the realized access latencies through the model. */
RowResult
table1Row()
{
    Cycle l1 = 0, l3 = 0, mem = 0;
    Machine m(machineCfg(SystemMode::CommTm));
    const Addr a = m.allocator().allocLines(1);
    m.addThread([&](ThreadContext &ctx) {
        const Cycle t0 = ctx.now();
        ctx.read<uint64_t>(a); // cold: L3 miss -> memory
        const Cycle t1 = ctx.now();
        ctx.read<uint64_t>(a); // L1 hit
        const Cycle t2 = ctx.now();
        mem = t1 - t0;
        l1 = t2 - t1;
    });
    m.run();
    Machine m2(machineCfg(SystemMode::CommTm));
    const Addr b = m2.allocator().allocLines(1);
    m2.memory().write<uint64_t>(b, 1);
    m2.addThread([&](ThreadContext &ctx) {
        ctx.read<uint64_t>(b); // warm the private hierarchy
    });
    m2.addThread([&](ThreadContext &ctx) {
        const Cycle t0 = ctx.now();
        ctx.read<uint64_t>(b); // served via L3/dir (other core has S)
        l3 = ctx.now() - t0;
    });
    m2.run();

    RowResult row;
    row.extra = configCounters();
    row.extra.insert(row.extra.end(), {{"L1_hit_cyc", double(l1)},
                                       {"L3_dir_cyc", double(l3)},
                                       {"mem_cyc", double(mem)}});
    return row;
}

} // namespace

void
addTable1Rows(Registry &reg)
{
    addFamily(reg, "table1", "", false).add("Table I", table1Row);
}

} // namespace benchutil
} // namespace commtm
