/**
 * @file
 * ReplayOracle implementation: op attachment to the commit stream,
 * serial re-execution through the registered models, and the
 * eager/lazy differential harness.
 */

#include "sim/replay_oracle.h"

#include <algorithm>
#include <cassert>

#include "rt/machine.h"

namespace commtm {

bool
StructureModel::checkFinal(Machine &machine, std::string *diag)
{
    const std::vector<uint8_t> got = snapshotMachine(machine);
    const std::vector<uint8_t> want = snapshotModel();
    if (got == want)
        return true;
    if (diag) {
        *diag = std::string("model '") + name() +
                "': final state differs from the machine (" +
                std::to_string(want.size()) + " vs " +
                std::to_string(got.size()) + " snapshot bytes";
        const size_t n = std::min(got.size(), want.size());
        for (size_t i = 0; i < n; i++) {
            if (got[i] != want[i]) {
                *diag += ", first at byte " + std::to_string(i);
                break;
            }
        }
        *diag += ")";
    }
    return false;
}

namespace {

CommitLog &
requireLog(Machine &machine)
{
    CommitLog *log = machine.commitLog();
    assert(log &&
           "ReplayOracle requires MachineConfig::recordCommits");
    return *log;
}

} // namespace

ReplayOracle::ReplayOracle(Machine &machine)
    : machine_(machine), log_(requireLog(machine))
{
}

uint32_t
ReplayOracle::addModel(std::unique_ptr<StructureModel> model)
{
    models_.push_back(std::move(model));
    return uint32_t(models_.size() - 1);
}

void
ReplayOracle::recordOp(ThreadContext &ctx, ModelOp op)
{
    assert(!ctx.inTx() &&
           "recordOp attaches to a committed transaction; call it "
           "after the structure call returns");
    assert(op.structId < models_.size());
    const uint64_t txId = log_.lastSealedOf(ctx.id());
    if (opsByCommit_.size() <= txId)
        opsByCommit_.resize(txId + 1);
    opsByCommit_[txId].push_back(std::move(op));
}

bool
ReplayOracle::replaySerial(std::string *diag)
{
    const std::vector<CommitRecord> &records = log_.records();
    for (const CommitRecord &rec : records) {
        if (rec.txId >= opsByCommit_.size())
            continue;
        uint32_t op_index = 0;
        for (const ModelOp &recorded : opsByCommit_[rec.txId]) {
            ModelOp op = recorded;
            if (flipArmed_ && rec.core == flipCore_ &&
                rec.commitIndex == flipCommit_ &&
                op_index == flipOp_ && flipArg_ < op.args.size()) {
                op.args[flipArg_] ^= uint64_t(1) << (8 * flipByte_);
            }
            std::string why;
            if (!models_[op.structId]->apply(op, &why)) {
                if (diag) {
                    *diag = "txId " + std::to_string(rec.txId) +
                            " (core " + std::to_string(rec.core) +
                            " commit #" +
                            std::to_string(rec.commitIndex) +
                            ", op " + std::to_string(op_index) +
                            ") model '" +
                            models_[op.structId]->name() +
                            "': " + why;
                }
                return false;
            }
            op_index++;
        }
    }
    for (const auto &model : models_) {
        std::string why;
        if (!model->checkFinal(machine_, &why)) {
            if (diag)
                *diag = why;
            return false;
        }
    }
    return true;
}

void
ReplayOracle::setTestArgFlip(CoreId core, uint32_t commit_index,
                             uint32_t op_index, uint32_t arg_index,
                             uint32_t byte_index)
{
    flipArmed_ = true;
    flipCore_ = core;
    flipCommit_ = commit_index;
    flipOp_ = op_index;
    flipArg_ = arg_index;
    flipByte_ = byte_index;
}

DifferentialResult
runDifferential(MachineConfig base,
                const std::function<DifferentialRun(
                    const MachineConfig &)> &workload,
                DiffMode digest_mode)
{
    base.recordCommits = true;
    MachineConfig eager = base;
    eager.conflictDetection = ConflictDetection::Eager;
    MachineConfig lazy = base;
    lazy.conflictDetection = ConflictDetection::Lazy;

    const DifferentialRun a = workload(eager);
    const DifferentialRun b = workload(lazy);

    DifferentialResult res;
    const CommitLogDiff d = CommitLog::diff(a.log, b.log, digest_mode);
    if (!d.equal) {
        res.ok = false;
        res.diag = "eager vs lazy commit logs: " + d.message;
        return res;
    }
    if (a.endState != b.endState) {
        res.ok = false;
        res.diag = "eager vs lazy end states differ (" +
                   std::to_string(a.endState.size()) + " vs " +
                   std::to_string(b.endState.size()) + " bytes";
        const size_t n =
            std::min(a.endState.size(), b.endState.size());
        for (size_t i = 0; i < n; i++) {
            if (a.endState[i] != b.endState[i]) {
                res.diag += ", first at byte " + std::to_string(i);
                break;
            }
        }
        res.diag += ")";
        return res;
    }
    return res;
}

} // namespace commtm
