/**
 * @file
 * Replay oracle (docs/ARCHITECTURE.md Sec. 9): two standing checks
 * built on the commit log.
 *
 * (a) Differential mode replay — runDifferential() executes the same
 *     seeded workload under eager and under lazy conflict detection,
 *     requires semantically equivalent end states (the workload
 *     returns a canonical byte encoding: exact where the structure
 *     guarantees it, sorted-multiset where only the reduction is
 *     deterministic), and diffs the per-transaction labeled-op
 *     digests per core (DiffMode::Shape — operand bytes of partial
 *     values legitimately differ across modes).
 *
 * (b) Serial re-execution — ReplayOracle records one structure-level
 *     ModelOp per transactional structure call, attached to the
 *     transaction that committed it, and replaySerial() re-executes
 *     the recorded commit order one transaction at a time against
 *     pure software models (tests/models/), then diffs the final
 *     model states against the machine byte-for-byte. Because a
 *     committed transaction's reads are valid as of its commit in
 *     both eager and lazy modes, serial replay in commit order is
 *     exact under either scheme.
 *
 * Any structure gets the oracle for free by providing a
 * StructureModel and recording its ops; see the model headers under
 * tests/models/ for the registration pattern.
 */

#ifndef COMMTM_SIM_REPLAY_ORACLE_H
#define COMMTM_SIM_REPLAY_ORACLE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/commit_log.h"
#include "sim/config.h"
#include "sim/types.h"

namespace commtm {

class Machine;
class ThreadContext;

/**
 * One structure-level operation as seen by a software model: which
 * registered structure, which of its op kinds, the success flag the
 * simulated call returned, and its kind-defined operand/result words.
 */
struct ModelOp {
    uint32_t structId = 0;
    uint32_t kind = 0;
    bool ok = true;
    std::vector<uint64_t> args;
};

/**
 * Pure software model of one commutative structure. apply() replays
 * one recorded op and returns false (with a diagnostic) if the
 * recorded outcome is impossible given the model state — e.g. a
 * dequeue returned a value the model multiset does not hold, or a
 * release would mint a token past capacity. checkFinal() compares
 * end states; the default is a byte-for-byte diff of
 * snapshotMachine() against snapshotModel(), and models whose final
 * state is only determined up to commutative equivalence (e.g.
 * OrderedPut key ties) override it.
 */
class StructureModel
{
  public:
    virtual ~StructureModel() = default;

    virtual const char *name() const = 0;
    virtual bool apply(const ModelOp &op, std::string *diag) = 0;

    /** Canonical bytes of the committed simulated state. */
    virtual std::vector<uint8_t> snapshotMachine(Machine &machine) = 0;
    /** Canonical bytes of the model state (same encoding). */
    virtual std::vector<uint8_t> snapshotModel() = 0;

    virtual bool checkFinal(Machine &machine, std::string *diag);
};

/**
 * Records structure-level ops against the machine's commit log and
 * serially re-executes them. Construction requires recording to be
 * enabled (MachineConfig::recordCommits); recordOp() must be called
 * outside the transaction, right after the structure call returns —
 * the op is attached to the caller core's most recent committed
 * transaction, which is exactly the one the call ran (every library
 * structure op is one txRun, and the simulator is sequential).
 */
class ReplayOracle
{
  public:
    explicit ReplayOracle(Machine &machine);

    ReplayOracle(const ReplayOracle &) = delete;
    ReplayOracle &operator=(const ReplayOracle &) = delete;

    /** Register a model; the returned id is ModelOp::structId. */
    uint32_t addModel(std::unique_ptr<StructureModel> model);

    StructureModel &model(uint32_t id) { return *models_[id]; }

    /** Attach @p op to @p ctx's most recent committed transaction. */
    void recordOp(ThreadContext &ctx, ModelOp op);

    /**
     * Replay the recorded commit order one transaction at a time
     * through the registered models, then run every model's
     * checkFinal against the machine. Returns false with a
     * diagnostic (txId, core, commit index, model, reason) on the
     * first divergence.
     */
    bool replaySerial(std::string *diag);

    /** Test-only fault injection: XOR 1 into byte @p byte_index of
     *  arg word @p arg_index of recorded op @p op_index of commit
     *  @p commit_index of @p core before replaying it, proving
     *  serial re-execution can detect a real divergence. */
    void setTestArgFlip(CoreId core, uint32_t commit_index,
                        uint32_t op_index, uint32_t arg_index,
                        uint32_t byte_index);

  private:
    Machine &machine_;
    CommitLog &log_;
    std::vector<std::unique_ptr<StructureModel>> models_;
    /** Ops attached to each global commit, indexed by txId. */
    std::vector<std::vector<ModelOp>> opsByCommit_;

    bool flipArmed_ = false;
    CoreId flipCore_ = 0;
    uint32_t flipCommit_ = 0;
    uint32_t flipOp_ = 0;
    uint32_t flipArg_ = 0;
    uint32_t flipByte_ = 0;
};

/** What one differential run produces: its serialized commit log and
 *  a canonical byte encoding of the committed end state. */
struct DifferentialRun {
    std::vector<uint8_t> log;
    std::vector<uint8_t> endState;
};

struct DifferentialResult {
    bool ok = true;
    std::string diag;
};

/**
 * Differential mode replay: run @p workload under eager and lazy
 * conflict detection (recording enabled on both), require identical
 * canonical end states, and diff the two commit logs under
 * @p digest_mode (DiffMode::Shape for cross-mode comparison). The
 * workload must derive all randomness from the config seed and must
 * not share host state between invocations.
 */
DifferentialResult
runDifferential(MachineConfig base,
                const std::function<DifferentialRun(
                    const MachineConfig &)> &workload,
                DiffMode digest_mode);

} // namespace commtm

#endif // COMMTM_SIM_REPLAY_ORACLE_H
