/**
 * @file
 * Regression tests for the perf-baseline JSON reader/writer
 * (bench/baseline_io.h). Two historical bugs anchor these:
 *
 *  - parseNumber handed p_ straight to strtod, which scans until a
 *    non-number byte; on a buffer that ends mid-number (truncated
 *    file, or any mmap'd range with no trailing NUL) it read past
 *    end_. The guard-page tests here put the text flush against a
 *    PROT_NONE page so the overread faults deterministically instead
 *    of silently depending on heap layout.
 *
 *  - parseEntry routed the exact counters through double, so any
 *    sim_cycles value above 2^53 was rounded to the nearest
 *    representable double and the "exact" baseline check compared
 *    rounded values. The counters now parse as uint64_t directly.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/baseline_io.h"
#include "bench/bench_util.h"

namespace commtm {
namespace benchutil {
namespace baseline {
namespace {

bool
parseText(const std::string &text, File &out, std::string &err)
{
    Parser parser(text.data(), text.data() + text.size());
    return parser.parseFile(out, err);
}

TEST(BaselineParser, RoundTripsWriterOutput)
{
    File file;
    file["fig09"]["Baseline @128t"] = {123456789, 1000, 37, 1.0};
    file["fig09"]["CommTM @128t"] = {1234, 1000, 0, 95.5};
    file["fig12"]["CommTM/lazy @256t"] = {42, 7, 3, 0.125};

    const std::string path =
        ::testing::TempDir() + "/baseline_roundtrip.json";
    ASSERT_TRUE(save(path, file));
    File loaded;
    std::string err;
    ASSERT_TRUE(load(path, loaded, err)) << err;
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded["fig09"]["Baseline @128t"].simCycles, 123456789u);
    EXPECT_EQ(loaded["fig09"]["CommTM @128t"].speedup, 95.5);
    EXPECT_EQ(loaded["fig12"]["CommTM/lazy @256t"].aborts, 3u);
    std::remove(path.c_str());
}

TEST(BaselineParser, CountersAboveDoublePrecisionStayExact)
{
    // 2^53 + 1 is the first integer a double cannot represent; the old
    // through-double path parsed it as 9007199254740992.
    const uint64_t big = 9007199254740993ull;
    File file;
    file["fam"]["row"] = {big, UINT64_MAX, 0, 1.0};

    const std::string path = ::testing::TempDir() + "/baseline_exact.json";
    ASSERT_TRUE(save(path, file));
    File loaded;
    std::string err;
    ASSERT_TRUE(load(path, loaded, err)) << err;
    EXPECT_EQ(loaded["fam"]["row"].simCycles, big);
    EXPECT_EQ(loaded["fam"]["row"].commits, UINT64_MAX);
    std::remove(path.c_str());
}

TEST(BaselineParser, RejectsNonIntegerCounters)
{
    File out;
    std::string err;
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"sim_cycles": 1.5}}})", out, err));
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"commits": -1}}})", out, err));
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"aborts": 1e3}}})", out, err));
    // One past UINT64_MAX must overflow, not wrap or saturate quietly.
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"commits": 18446744073709551616}}})", out, err));
    EXPECT_NE(err.find("overflows"), std::string::npos) << err;
    // speedup stays a double: fractions and exponents are fine there.
    File ok;
    EXPECT_TRUE(parseText(
        R"({"f": {"r": {"speedup": 1.5e-3}}})", ok, err)) << err;
    EXPECT_EQ(ok["f"]["r"].speedup, 1.5e-3);
}

TEST(BaselineParser, RejectsOverlongNumberToken)
{
    std::string text = R"({"f": {"r": {"sim_cycles": )";
    text.append(80, '9');
    text += "}}}";
    File out;
    std::string err;
    EXPECT_FALSE(parseText(text, out, err));
    EXPECT_NE(err.find("too long"), std::string::npos) << err;
}

/**
 * Lay @p text out so its last byte is flush against a PROT_NONE guard
 * page: any read one past the end faults instead of returning
 * whatever the heap happens to hold. Returns the pointer to the text
 * (not NUL-terminated, by construction).
 */
class GuardedBuffer
{
  public:
    explicit GuardedBuffer(const std::string &text)
    {
        page_ = size_t(sysconf(_SC_PAGESIZE));
        ASSERT_TRUE_CTOR(text.size() <= page_);
        map_ = static_cast<char *>(
            mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
        ASSERT_TRUE_CTOR(map_ != MAP_FAILED);
        ASSERT_TRUE_CTOR(
            mprotect(map_ + page_, page_, PROT_NONE) == 0);
        begin_ = map_ + page_ - text.size();
        std::memcpy(begin_, text.data(), text.size());
        end_ = map_ + page_;
    }

    ~GuardedBuffer()
    {
        if (map_ && map_ != MAP_FAILED)
            munmap(map_, 2 * page_);
    }

    const char *begin() const { return begin_; }
    const char *end() const { return end_; }

  private:
    // gtest's ASSERT_* need a void return; constructors don't have
    // one. abort() keeps the failure loud without that plumbing.
    static void
    ASSERT_TRUE_CTOR(bool ok)
    {
        if (!ok)
            abort();
    }

    size_t page_ = 0;
    char *map_ = nullptr;
    char *begin_ = nullptr;
    char *end_ = nullptr;
};

TEST(BaselineParser, TruncatedNumberAtBufferEndDoesNotOverread)
{
    // The buffer ends mid-number, with no trailing NUL: the old
    // strtod(p_, ...) call scanned into the guard page and SIGSEGV'd
    // here. The fixed parser must stop at end_ and report a clean
    // error (truncated file — the object is never closed).
    GuardedBuffer buf(R"({"f": {"r": {"sim_cycles": 123456)");
    Parser parser(buf.begin(), buf.end());
    File out;
    std::string err;
    EXPECT_FALSE(parser.parseFile(out, err));
    EXPECT_NE(err.find("EOF"), std::string::npos) << err;
}

TEST(BaselineParser, CompleteFileAgainstGuardPageParses)
{
    // A well-formed file whose final byte touches the guard page: the
    // parser must consume it fully without peeking past end_.
    GuardedBuffer buf(
        R"({"f": {"r": {"sim_cycles": 7, "speedup": 2.5}}})");
    Parser parser(buf.begin(), buf.end());
    File out;
    std::string err;
    ASSERT_TRUE(parser.parseFile(out, err)) << err;
    EXPECT_EQ(out["f"]["r"].simCycles, 7u);
    EXPECT_EQ(out["f"]["r"].speedup, 2.5);
}

TEST(BaselineParser, NumberFlushAgainstGuardPageParses)
{
    // Edge case of the bounded tokenizer itself: the number's last
    // digit is the last readable byte. numberToken must not test
    // p_[len] before checking p_ + len < end_.
    GuardedBuffer buf(R"({"f": {"r": {"speedup": 0.25)");
    Parser parser(buf.begin(), buf.end());
    File out;
    std::string err;
    EXPECT_FALSE(parser.parseFile(out, err));
    // The number itself parsed; the failure is the missing '}'.
    EXPECT_NE(err.find("EOF"), std::string::npos) << err;
}

TEST(BaselineParser, QuantileFieldsRoundTrip)
{
    File file;
    Entry svc;
    svc.simCycles = 81660;
    svc.commits = 6144;
    svc.aborts = 0;
    svc.speedup = 2.119;
    svc.hasQuantiles = true;
    svc.p50 = 59;
    svc.p99 = 991;
    svc.p999 = 9007199254740993ull; // above 2^53: must stay exact
    file["svc_counter"]["CommTM burst @128t"] = svc;
    file["fig09"]["Baseline @128t"] = {123, 45, 6, 1.0};

    const std::string path =
        ::testing::TempDir() + "/baseline_quantiles.json";
    ASSERT_TRUE(save(path, file));
    File loaded;
    std::string err;
    ASSERT_TRUE(load(path, loaded, err)) << err;
    const Entry &got = loaded["svc_counter"]["CommTM burst @128t"];
    EXPECT_TRUE(got.hasQuantiles);
    EXPECT_EQ(got.p50, 59u);
    EXPECT_EQ(got.p99, 991u);
    EXPECT_EQ(got.p999, 9007199254740993ull);
    // Closed-loop rows neither write nor acquire quantile keys: old
    // baseline files and new ones must stay byte-interchangeable for
    // every pre-existing row.
    EXPECT_FALSE(loaded["fig09"]["Baseline @128t"].hasQuantiles);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const size_t fig_at = text.find("\"fig09\"");
    const size_t svc_at = text.find("\"svc_counter\"");
    ASSERT_NE(fig_at, std::string::npos);
    ASSERT_NE(svc_at, std::string::npos);
    // Families serialize in map order, so fig09's row text is the
    // [fig09, svc_counter) range: it must carry no quantile keys.
    ASSERT_LT(fig_at, svc_at);
    EXPECT_EQ(text.substr(fig_at, svc_at - fig_at).find("\"p50\""),
              std::string::npos);
    EXPECT_NE(text.find("\"p50\": 59", svc_at), std::string::npos);
    std::remove(path.c_str());
}

TEST(BaselineParser, UnknownNumericFieldsAreTolerated)
{
    // Forward tolerance: a future writer may pin counters this reader
    // does not know. Numbers skip cleanly; anything else still fails.
    File out;
    std::string err;
    ASSERT_TRUE(parseText(
        R"({"f": {"r": {"sim_cycles": 7, "p75": 12,)"
        R"( "frobnication_index": 1.5e9, "p999": 42}}})",
        out, err))
        << err;
    EXPECT_EQ(out["f"]["r"].simCycles, 7u);
    EXPECT_EQ(out["f"]["r"].p999, 42u);
    EXPECT_TRUE(out["f"]["r"].hasQuantiles);
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"novel_key": "a string"}}})", out, err));
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"p50": 1.5}}})", out, err));
}

TEST(BaselineCheck, QuantilePresenceRules)
{
    Entry pinned;
    pinned.simCycles = 10;
    pinned.speedup = 1.0;
    pinned.hasQuantiles = true;
    pinned.p50 = 5;
    pinned.p99 = 50;
    pinned.p999 = 500;

    File file;
    file["svc"]["row"] = pinned;

    // Exact match passes.
    std::vector<Recorded> rows = {{"svc", "row", pinned}};
    EXPECT_TRUE(check(file, rows));

    // A single drifted quantile fails.
    rows.back().entry.p999 = 501;
    EXPECT_FALSE(check(file, rows));

    // A row that stopped reporting pinned quantiles is a regression.
    rows.back().entry = {10, 0, 0, 1.0};
    EXPECT_FALSE(check(file, rows));

    // The reverse — bench reports quantiles, baseline file predates
    // them — checks cleanly, so old files stay usable until the next
    // --write-baseline.
    File old_file;
    old_file["svc"]["row"] = {10, 0, 0, 1.0};
    rows.back().entry = pinned;
    EXPECT_TRUE(check(old_file, rows));
}

TEST(BaselineCheck, MergeReplacesRecordedRowsOnly)
{
    File file;
    file["figA"]["row1"] = {99, 9, 9, 9.0};
    file["figA"]["row2"] = {7, 7, 7, 7.0};
    file["figB"]["rowX"] = {5, 5, 5, 5.0};
    mergeRecorded(file, {{"figA", "row1", {10, 1, 0, 1.0}}});
    EXPECT_EQ(file["figA"]["row1"].simCycles, 10u);
    EXPECT_EQ(file["figA"]["row2"].simCycles, 7u); // untouched
    EXPECT_EQ(file["figB"]["rowX"].simCycles, 5u); // untouched
}

} // namespace
} // namespace baseline

// --- the commtm_bench row registry and driver (bench/bench_util.h) ---

namespace {

using baseline::Entry;
using baseline::File;
using baseline::load;
using baseline::save;

TEST(BenchRegistry, PinnedRowsMatchBaselineFileExactly)
{
    File file;
    std::string err;
    ASSERT_TRUE(load(COMMTM_BASELINE_FILE, file, err)) << err;

    std::set<std::pair<std::string, std::string>> registered;
    for (const Family &fam : allRows()) {
        std::set<std::string> labels;
        bool has_reference = fam.reference.empty();
        for (const Row &row : fam.rows) {
            EXPECT_TRUE(labels.insert(row.label).second)
                << "duplicate row " << fam.name << "/" << row.label;
            has_reference |= row.label == fam.reference;
        }
        EXPECT_TRUE(has_reference)
            << fam.name << ": reference row '" << fam.reference
            << "' is not registered";
        if (fam.pinned) {
            EXPECT_FALSE(fam.reference.empty()) << fam.name;
            for (const std::string &label : labels)
                registered.insert({fam.name, label});
        }
    }

    std::set<std::pair<std::string, std::string>> pinned;
    for (const auto &[family, rows] : file) {
        for (const auto &row : rows)
            pinned.insert({family, row.first});
    }
    EXPECT_EQ(pinned.size(), 361u);
    for (const auto &[family, row] : registered) {
        EXPECT_TRUE(pinned.count({family, row}))
            << "registered row " << family << "/" << row
            << " has no pin";
    }
    for (const auto &[family, row] : pinned) {
        EXPECT_TRUE(registered.count({family, row}))
            << "stale pin " << family << "/" << row;
    }
}

/** runBench on @p reg with @p opts; stderr is returned in @p err and
 *  the JSON rows are discarded. */
int
runCaptured(const Registry &reg, const Options &opts, std::string &err)
{
    std::FILE *out = std::tmpfile();
    ::testing::internal::CaptureStderr();
    const int code = runBench(reg, opts, out);
    err = ::testing::internal::GetCapturedStderr();
    std::fclose(out);
    return code;
}

/** A family of two rows that report no statistics; @p bad_error is
 *  the second row's validation error (empty: it passes). */
Registry
syntheticRegistry(bool pinned, const std::string &bad_error)
{
    Registry reg;
    Family &fam = addFamily(reg, "synthetic", "ref", pinned);
    fam.add("ref", [] { return RowResult{}; });
    fam.add("bad", [bad_error] {
        RowResult r;
        r.error = bad_error;
        return r;
    });
    return reg;
}

TEST(BenchDriver, FailingRowFailsEveryMode)
{
    const std::string path = ::testing::TempDir() + "/synthetic.json";
    File file;
    file["synthetic"]["ref"] = Entry{};
    file["synthetic"]["bad"] = Entry{};
    ASSERT_TRUE(save(path, file));

    Options run;
    Options check_opts;
    check_opts.check = true;
    check_opts.baselinePath = path;
    std::string err;
    // The pins match the rows: only the validation error fails them.
    EXPECT_EQ(runCaptured(syntheticRegistry(true, ""), check_opts, err),
              0)
        << err;
    for (const Options &opts : {run, check_opts}) {
        EXPECT_NE(runCaptured(syntheticRegistry(true, "boom"), opts, err),
                  0);
        EXPECT_NE(err.find("synthetic/bad"), std::string::npos) << err;
    }

    // --write-baseline leaves the file alone when a row fails.
    Options write_opts;
    write_opts.write = true;
    write_opts.baselinePath = ::testing::TempDir() + "/never.json";
    std::remove(write_opts.baselinePath.c_str());
    EXPECT_NE(runCaptured(syntheticRegistry(true, "boom"), write_opts, err),
              0);
    EXPECT_NE(err.find("synthetic/bad"), std::string::npos) << err;
    EXPECT_EQ(std::fopen(write_opts.baselinePath.c_str(), "r"), nullptr);
    std::remove(path.c_str());
}

TEST(BenchDriver, WriteDropsPinsTheRegistryNoLongerHas)
{
    const std::string path = ::testing::TempDir() + "/stale.json";
    File file;
    file["synthetic"]["stale"] = {1, 1, 1, 1.0};
    file["other"]["row"] = {2, 2, 2, 2.0};
    ASSERT_TRUE(save(path, file));

    Options opts;
    opts.write = true;
    opts.baselinePath = path;
    std::string err;
    ASSERT_EQ(runCaptured(syntheticRegistry(true, ""), opts, err), 0)
        << err;
    File written;
    ASSERT_TRUE(load(path, written, err)) << err;
    EXPECT_EQ(written["synthetic"].size(), 2u);
    EXPECT_EQ(written["synthetic"].count("stale"), 0u);
    EXPECT_EQ(written["other"]["row"].simCycles, 2u); // untouched
    std::remove(path.c_str());
}

TEST(BenchDriver, FilteredCheckComparesSpeedup)
{
    // One non-reference row: the driver still runs fig09's reference
    // first, so the row's speedup is exact against the pinned file.
    Options opts;
    opts.filter = "^fig09/CommTM @128t$";
    opts.check = true;
    std::string err;
    EXPECT_EQ(runCaptured(allRows(), opts, err), 0) << err;
    EXPECT_NE(err.find("PASSED: 1 rows"), std::string::npos) << err;

    File file;
    ASSERT_TRUE(load(COMMTM_BASELINE_FILE, file, err)) << err;
    file["fig09"]["CommTM @128t"].speedup *= 1.001;
    opts.baselinePath = ::testing::TempDir() + "/speedup.json";
    ASSERT_TRUE(save(opts.baselinePath, file));
    EXPECT_NE(runCaptured(allRows(), opts, err), 0);
    EXPECT_NE(err.find("speedup"), std::string::npos) << err;
    std::remove(opts.baselinePath.c_str());
}

} // namespace
} // namespace benchutil
} // namespace commtm
