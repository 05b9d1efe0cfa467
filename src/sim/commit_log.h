/**
 * @file
 * Commit-order recording (docs/ARCHITECTURE.md Sec. 9): when enabled
 * on MachineConfig, every transaction commit appends a CommitRecord
 * {txId, core, commitCycle, digests of the labeled ops and of the
 * conventional write set} to an in-memory log. Recording is strictly
 * observation-only — it reads speculative state the commit path
 * already walks and never touches simulated behavior — so the exact
 * same log can be captured from a baseline run without perturbing a
 * single counter. Logs serialize to a compact fixed-width format so
 * they can be written to disk and diffed across runs; the replay
 * oracle (sim/replay_oracle.h) builds both of its checks on top.
 */

#ifndef COMMTM_SIM_COMMIT_LOG_H
#define COMMTM_SIM_COMMIT_LOG_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace commtm {

/** What kind of labeled operation a digest entry covers. */
enum class CommitOpKind : uint8_t {
    LabeledLoad = 0,
    LabeledStore = 1,
    Gather = 2,
};

/**
 * FNV-1a over explicitly little-endian-encoded fields: the digest of
 * a commit is a pure function of the operation stream, independent of
 * host endianness or struct layout.
 */
class FnvDigest
{
  public:
    static constexpr uint64_t kBasis = 14695981039346656037ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    uint64_t value() const { return h_; }

    void
    u8(uint8_t v)
    {
        h_ = (h_ ^ v) * kPrime;
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; i++)
            u8(uint8_t(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            u8(uint8_t(v >> (8 * i)));
    }

    void
    bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < size; i++)
            u8(p[i]);
    }

  private:
    uint64_t h_ = kBasis;
};

/**
 * One committed transaction. txId is the global commit sequence
 * number (log position); commitIndex is the per-core commit count.
 * The three digests separate concerns: labeledShape covers only the
 * structural fields of labeled ops (kind, address, label, size) and
 * is comparable across eager and lazy runs of the same workload;
 * labeledValues additionally folds in store operand bytes (partial
 * values legitimately differ across modes, so it is only comparable
 * same-mode); writeSet covers the committed conventional write-buffer
 * entries (line, byte mask, masked bytes).
 */
struct CommitRecord {
    uint64_t txId = 0;
    uint32_t core = 0;
    uint32_t commitIndex = 0;
    Cycle commitCycle = 0;
    uint64_t labeledShape = FnvDigest::kBasis;
    uint64_t labeledValues = FnvDigest::kBasis;
    uint64_t writeSet = FnvDigest::kBasis;
    uint32_t labeledOps = 0;
    uint32_t writeLines = 0;
};

/** Result of CommitLog::diff: equal, or a precise first difference. */
struct CommitLogDiff {
    bool equal = true;
    std::string message;
};

/**
 * How two logs are compared.
 *  - Exact: same global record sequence, all fields (including
 *    commitCycle). Right for same-config same-seed determinism.
 *  - PerCore: per-core commit streams must match in all digests and
 *    counts; the global interleaving (and cycles) may differ. Right
 *    for runs that differ only in timing.
 *  - Shape: per-core streams must match in labeledShape and op
 *    counts only. Right for eager-vs-lazy differential comparison,
 *    where operand bytes and write digests legitimately diverge.
 */
enum class DiffMode {
    Exact,
    PerCore,
    Shape,
};

/**
 * The per-machine commit log. The runtime drives recording:
 * ThreadContext notes each labeled op that stayed labeled, and
 * txRun's commit point notes the conventional write-buffer lines and
 * seals the record right before HtmManager::commit (no yield between
 * the two, so commit order in the log equals the functional commit
 * order). Aborted attempts discard their pending digests.
 */
class CommitLog
{
  public:
    explicit CommitLog(uint32_t num_cores);

    // --- recording (called from the commit path) ---

    /** Fold one labeled op into the pending digests of @p core.
     *  @p operand is the store value (nullptr for loads/gathers). */
    void noteLabeledOp(CoreId core, CommitOpKind kind, Addr addr,
                       Label label, const void *operand, uint32_t size);

    /** Fold one committed conventional write-buffer line. */
    void noteWriteLine(CoreId core, Addr line, uint64_t mask,
                       const uint8_t *data);

    /** Seal the pending digests of @p core into a CommitRecord. */
    void sealCommit(CoreId core, Cycle commit_cycle);

    /** Discard the pending digests of an aborted attempt. */
    void abortAttempt(CoreId core);

    // --- inspection ---

    uint32_t numCores() const { return uint32_t(pending_.size()); }
    const std::vector<CommitRecord> &records() const { return records_; }
    /** Commits sealed so far by @p core. */
    uint32_t commitsOf(CoreId core) const { return commits_[core]; }
    /** txId of the most recent commit sealed by @p core, which must
     *  have committed at least once. */
    uint64_t
    lastSealedOf(CoreId core) const
    {
        assert(commits_[core] > 0 && "core has not committed yet");
        return lastSealed_[core];
    }

    // --- persistence and comparison ---

    /** Compact fixed-width encoding: a 24-byte header (magic,
     *  version, core count, record count) followed by one 56-byte
     *  little-endian record per commit. */
    std::vector<uint8_t> serialize() const;

    /** Parse @p buf into @p out. On failure returns false and sets
     *  @p error to a precise diagnostic naming the record (txId) and
     *  field that is inconsistent. */
    static bool deserialize(const std::vector<uint8_t> &buf,
                            CommitLog *out, std::string *error);

    /** First difference between two logs under @p mode (see
     *  DiffMode); the message names core, commit index, txId, and
     *  field. */
    static CommitLogDiff diff(const CommitLog &a, const CommitLog &b,
                              DiffMode mode);

    /**
     * Test-only fault injection: flip bit 0 of byte @p byte_index of
     * the operand of labeled op @p op_index inside commit
     * @p commit_index of @p core, before it is folded into the
     * labeledValues digest. Models a recording divergence so tests
     * can prove the differential oracle actually fails; never used
     * outside tests.
     */
    void setTestOperandFlip(CoreId core, uint32_t commit_index,
                            uint32_t op_index, uint32_t byte_index);

    static constexpr char kMagic[8] = {'C', 'T', 'M', 'C',
                                       'L', 'O', 'G', '1'};
    static constexpr uint32_t kVersion = 1;
    static constexpr size_t kHeaderBytes = 24;
    static constexpr size_t kRecordBytes = 56;

  private:
    struct Pending {
        FnvDigest shape;
        FnvDigest values;
        FnvDigest writes;
        uint32_t labeledOps = 0;
        uint32_t writeLines = 0;
    };

    std::vector<Pending> pending_;     //!< one open record per core
    std::vector<uint32_t> commits_;    //!< per-core sealed-commit count
    std::vector<uint64_t> lastSealed_; //!< per-core latest txId
    std::vector<CommitRecord> records_;

    bool flipArmed_ = false;
    CoreId flipCore_ = 0;
    uint32_t flipCommit_ = 0;
    uint32_t flipOp_ = 0;
    uint32_t flipByte_ = 0;
};

} // namespace commtm

#endif // COMMTM_SIM_COMMIT_LOG_H
