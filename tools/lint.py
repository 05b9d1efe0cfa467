#!/usr/bin/env python3
"""Repo lint for the CommTM simulator (blocking in CI).

Mechanizes the hand-maintained source rules:

  line-length    no source line longer than 78 columns
  tabs           no tab characters; indentation is 4 spaces
  file-header    every C++ file starts with a Doxygen @file comment
  file-ext       C++ sources use the .cc extension; .cpp under src/,
                 tests/, bench/, or examples/ is flagged (the tree
                 once mixed both; build globs assume .cc)
  tx-aborted     in transaction-body code (src/lib/, src/apps/,
                 examples/, bench/), a readLabeled/readGather call
                 must be followed by a ctx.txAborted() check inside
                 the same brace scope (the cooperative-unwind
                 contract, docs/ARCHITECTURE.md Sec. 4.1)
  sec-ref        arabic "Sec. N[.M]" comment references must name an
                 existing section of docs/ARCHITECTURE.md; roman
                 references (paper sections, e.g. Sec. III-B4) must be
                 well-formed

Suppress a finding on a specific line by appending a comment:

  // lint: allow-<rule>      e.g. // lint: allow-tx-aborted

(on the flagged line or up to two lines above it). The canonical
tx-aborted suppression case is a pure labeled read-modify-write: the
value read feeds only a writeLabeled to the same label, and the
buffered write dies with the aborted attempt, so acting on the zero
sentinel is harmless.

Usage:
  tools/lint.py [--root DIR]   lint the tree, exit 1 on any finding
  tools/lint.py --self-test    prove every rule fires on a synthetic
                               violation, exit 1 if any rule is dead
"""

import argparse
import re
import sys
from pathlib import Path

MAX_COLS = 78

# File sets, relative to the repo root.
CXX_GLOBS = [
    "src/*/*.h",
    "src/*/*.cc",
    "tests/*.cc",
    "bench/*.h",
    "bench/*.cc",
    "examples/*.cc",
    "tools/*.cc",
]
# Wrong-extension sources: linted for file-ext, not for content (they
# should not exist; the build globs only pick up .cc).
BAD_EXT_GLOBS = [
    "src/*/*.cpp",
    "tests/*.cpp",
    "bench/*.cpp",
    "examples/*.cpp",
]
TX_BODY_GLOBS = [
    "src/lib/*.cc",
    "src/apps/*.cc",
    "examples/*.cc",
    "bench/*.cc",
    "bench/*.h",
]

ALLOW_RE = re.compile(r"//\s*lint:\s*allow-([a-z-]+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def suppressed(lines, lineno, rule):
    """A finding is suppressed by `// lint: allow-<rule>` on the
    flagged line or up to two lines above it (multi-line statements
    put the comment above the whole statement; 1-based lineno)."""
    for cand in (lineno, lineno - 1, lineno - 2):
        if 1 <= cand <= len(lines):
            m = ALLOW_RE.search(lines[cand - 1])
            if m and m.group(1) == rule:
                return True
    return False


def check_line_length(path, lines, findings):
    for i, line in enumerate(lines, 1):
        if len(line) > MAX_COLS and not suppressed(lines, i, "line-length"):
            findings.append(
                Finding(path, i, "line-length",
                        f"{len(line)} columns (max {MAX_COLS})"))


def check_tabs(path, lines, findings):
    for i, line in enumerate(lines, 1):
        if "\t" in line and not suppressed(lines, i, "tabs"):
            findings.append(
                Finding(path, i, "tabs",
                        "tab character; use 4-space indentation"))


def check_file_ext(rel, findings):
    if str(rel).endswith(".cpp"):
        findings.append(
            Finding(rel, 1, "file-ext",
                    "C++ sources use the .cc extension, not .cpp"))


def check_file_header(path, lines, findings):
    head = "\n".join(lines[:5])
    if "@file" not in head:
        findings.append(
            Finding(path, 1, "file-header",
                    "missing Doxygen @file comment in the first lines"))


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving length
    and line structure, so brace matching is not fooled by braces in
    comments or literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            chunk = text[i:j]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


TX_CALL_RE = re.compile(r"\b(readLabeled|readGather)\s*[<(]")
TX_CHECK_RE = re.compile(r"\btxAborted\s*\(")


def check_tx_aborted(path, lines, findings):
    """After a readLabeled/readGather call, the rest of the enclosing
    function must contain a txAborted() check: labeled reads return
    the zero sentinel once the attempt has aborted, and acting on it
    without checking re-creates the PR-4/PR-5 bug class. The function
    boundary is the next closing brace at column 0 (repo style puts
    function-body braces there)."""
    text = "\n".join(lines)
    stripped = strip_comments_and_strings(text)
    for m in TX_CALL_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        if suppressed(lines, lineno, "tx-aborted"):
            continue
        # Scan from the call to the end of the enclosing function: a
        # "}" that starts a line.
        end = len(stripped)
        j = stripped.find("\n}", m.end())
        if j >= 0:
            end = j + 1
        if not TX_CHECK_RE.search(stripped, m.end(), end):
            findings.append(
                Finding(path, lineno, "tx-aborted",
                        f"{m.group(1)} result used without a "
                        "ctx.txAborted() check before the end of "
                        "the enclosing function"))


SEC_REF_RE = re.compile(r"\bSec\.\s+([0-9A-Za-z.-]+)")
ROMAN_RE = re.compile(r"^[IVX]+(-[A-Z][0-9]*)?$")
ARCH_HEADING_RE = re.compile(r"^#{2,3}\s+(\d+(?:\.\d+)?)[.\s]")


def load_arch_sections(root):
    sections = set()
    arch = root / "docs" / "ARCHITECTURE.md"
    if arch.exists():
        for line in arch.read_text().splitlines():
            m = ARCH_HEADING_RE.match(line)
            if m:
                sections.add(m.group(1))
    return sections


def check_sec_refs(path, lines, findings, sections):
    for i, line in enumerate(lines, 1):
        for m in SEC_REF_RE.finditer(line):
            ref = m.group(1).rstrip(".")
            if suppressed(lines, i, "sec-ref"):
                continue
            if ref[0].isdigit():
                # Arabic: a docs/ARCHITECTURE.md section.
                if ref not in sections:
                    findings.append(
                        Finding(path, i, "sec-ref",
                                f'"Sec. {ref}" does not match any '
                                "docs/ARCHITECTURE.md heading"))
            elif not ROMAN_RE.match(ref):
                findings.append(
                    Finding(path, i, "sec-ref",
                            f'malformed paper section reference '
                            f'"Sec. {ref}"'))


def lint_file(path, rel, findings, sections, tx_scope):
    lines = path.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    check_line_length(rel, lines, findings)
    check_tabs(rel, lines, findings)
    check_file_header(rel, lines, findings)
    check_sec_refs(rel, lines, findings, sections)
    if tx_scope:
        check_tx_aborted(rel, lines, findings)


def run_lint(root):
    sections = load_arch_sections(root)
    if not sections:
        print("lint: could not read docs/ARCHITECTURE.md headings",
              file=sys.stderr)
        return 1
    tx_files = set()
    for pattern in TX_BODY_GLOBS:
        tx_files.update(root.glob(pattern))
    files = set()
    for pattern in CXX_GLOBS:
        files.update(root.glob(pattern))
    findings = []
    for path in sorted(files):
        lint_file(path, path.relative_to(root), findings, sections,
                  path in tx_files)
    for pattern in BAD_EXT_GLOBS:
        for path in sorted(root.glob(pattern)):
            check_file_ext(path.relative_to(root), findings)
    for f in findings:
        print(f)
    print(f"lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


# ---------------------------------------------------------------------
# Self test: each rule must fire on a synthetic violation and stay
# quiet on compliant input (registered as a ctest, so a regression
# that silences a rule fails CI).
# ---------------------------------------------------------------------

SELF_TESTS = [
    ("line-length", ["// " + "x" * 80], True),
    ("line-length", ["// short"], False),
    ("line-length", ["// lint: allow-line-length", "/* " + "y" * 80], False),
    ("tabs", ["\tint x;"], True),
    ("tabs", ["    int x;"], False),
    ("sec-ref", ["// see docs/ARCHITECTURE.md Sec. 99"], True),
    ("sec-ref", ["// see docs/ARCHITECTURE.md Sec. 6"], False),
    ("sec-ref", ["// reduction (Sec. III-B4)"], False),
    ("sec-ref", ["// reduction (Sec. iii-b4)"], True),
]

TX_BAD = """
void pop(ThreadContext &ctx)
{
    ctx.txRun([&] {
        uint64_t tail = ctx.readLabeled<uint64_t>(a, kLab);
        ctx.write<uint64_t>(b, tail);
    });
}
"""

TX_GOOD = """
void pop(ThreadContext &ctx)
{
    ctx.txRun([&] {
        uint64_t tail = ctx.readLabeled<uint64_t>(a, kLab);
        if (ctx.txAborted())
            return;
        ctx.write<uint64_t>(b, tail);
    });
}
"""

TX_OUTER_CHECK = """
bool claim(ThreadContext &ctx)
{
    uint8_t tokens = ctx.readLabeled<uint8_t>(a, kLab);
    if (tokens == 0) {
        tokens = ctx.readGather<uint8_t>(a, kLab);
    }
    if (ctx.txAborted())
        return false;
    ctx.writeLabeled<uint8_t>(a, kLab, uint8_t(tokens - 1));
    return true;
}

void next(ThreadContext &ctx)
{
    uint64_t v = ctx.readLabeled<uint64_t>(b, kLab);
    ctx.write<uint64_t>(c, v);
}
"""

TX_SUPPRESSED = """
void pop(ThreadContext &ctx)
{
    ctx.txRun([&] {
        // lint: allow-tx-aborted
        uint64_t tail = ctx.readLabeled<uint64_t>(a, kLab);
        ctx.write<uint64_t>(b, tail);
    });
}
"""

TX_COMMENT_ONLY = """
void pop(ThreadContext &ctx)
{
    // a comment mentioning readLabeled(x) must not trigger
    ctx.txRun([&] { ctx.write<uint64_t>(b, 1); });
}
"""


def expect(ok, what, failures):
    if not ok:
        failures.append(what)
        print(f"self-test FAILED: {what}")


def run_self_test(root):
    sections = load_arch_sections(root)
    failures = []
    for rule, lines, should_fire in SELF_TESTS:
        findings = []
        check_line_length("t.cc", lines, findings)
        check_tabs("t.cc", lines, findings)
        check_sec_refs("t.cc", lines, findings, sections)
        fired = any(f.rule == rule for f in findings)
        expect(fired == should_fire,
               f"{rule} on {lines[:1]!r}: fired={fired}, "
               f"expected {should_fire}", failures)
    for name, body, expected in [
        ("tx-bad", TX_BAD, 1),
        ("tx-good", TX_GOOD, 0),
        # Only the check-less second function may fire; the checks in
        # the first function's outer scope cover its nested calls.
        ("tx-outer-check", TX_OUTER_CHECK, 1),
        ("tx-suppressed", TX_SUPPRESSED, 0),
        ("tx-comment-only", TX_COMMENT_ONLY, 0),
    ]:
        findings = []
        check_tx_aborted("t.cc", body.split("\n"), findings)
        fired = sum(1 for f in findings if f.rule == "tx-aborted")
        expect(fired == expected,
               f"tx-aborted/{name}: fired={fired}, "
               f"expected {expected}", failures)
    findings = []
    check_file_header("t.cc", ["int x;"], findings)
    expect(any(f.rule == "file-header" for f in findings),
           "file-header on headerless file", failures)
    findings = []
    check_file_header("t.cc", ["/**", " * @file", " */"], findings)
    expect(not findings, "file-header on compliant file", failures)
    findings = []
    check_file_ext(Path("examples/demo.cpp"), findings)
    expect(any(f.rule == "file-ext" for f in findings),
           "file-ext on a .cpp example", failures)
    findings = []
    check_file_ext(Path("examples/demo.cc"), findings)
    expect(not findings, "file-ext on a .cc example", failures)
    if failures:
        print(f"self-test: {len(failures)} failure(s)")
        return 1
    print("self-test: all rules fire and suppress correctly")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on synthetic "
                             "violations")
    args = parser.parse_args()
    root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent
    if args.self_test:
        return run_self_test(root)
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
