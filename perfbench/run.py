#!/usr/bin/env python3
"""Build and run perfbench, the simulator's host-cost benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S \\
      --trace 0|1 [--smoke] [--perturb-pinned]

Configures perfbench/ (which builds the simulator library from the
repository's sources) into .bench_build/release, builds it, and runs the
perfbench executable from the repository root with COMMTM_* environment
overrides removed, so the run sees only its own inputs. Build output
goes to stderr; the executable's stdout passes through unchanged,
ending in one JSON result line. The exit status is the executable's
(nonzero when a check failed); 2 when the sources are missing, the
build fails or --seconds is out of range, 3 when the executable
overruns its time limit.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end well inside 180 s. The executable refuses --seconds
# above MAX_SECONDS; a run overshoots --seconds by the layer probes and
# at most one pass, so MAX_SECONDS leaves that room below the timeout.
RUN_TIMEOUT_S = 170
MAX_SECONDS = 120


def step(cmd):
    """Run a build step with its output on stderr; exit 2 on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        print(f"perfbench: build step failed: {' '.join(cmd)}",
              file=sys.stderr)
        sys.exit(2)


def build(build_type="Release"):
    """Configure (once) and build the executable; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        print("perfbench: simulator sources not found beside perfbench/",
              file=sys.stderr)
        sys.exit(2)
    build_dir = ROOT / ".bench_build" / build_type.lower()
    if not (build_dir / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(build_dir),
              f"-DCMAKE_BUILD_TYPE={build_type}"])
    jobs = str(min(os.cpu_count() or 1, 4))
    step(["cmake", "--build", str(build_dir), "--target", "perfbench",
          "-j", jobs])
    return build_dir / "perfbench"


def commit():
    """The checkout's git commit, or "none" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes (self-test)")
    ap.add_argument("--perturb-pinned", action="store_true",
                    help="expect every pinned value off by one "
                         "(self-test: the run must fail)")
    args = ap.parse_args()
    try:
        seconds = float(args.seconds)
    except ValueError:
        seconds = -1
    if not 0 < seconds <= MAX_SECONDS:
        print(f"perfbench: --seconds must be in (0, {MAX_SECONDS}]",
              file=sys.stderr)
        return 2

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--baselines", str(ROOT / "bench" / "baselines.json"),
           "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_pinned:
        cmd.append("--perturb-pinned")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COMMTM_")}
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run overran {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
