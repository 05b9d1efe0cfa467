#!/usr/bin/env python3
"""Self-test of perfbench, at reduced sizes (about two minutes).

Usage, from the repository root:

  python3 perfbench/selftest.py [--with-debug]

Checks that:
  1. every workload, untraced and traced, prints every metric that
     BENCHMARK.json names, with its unit, as "metric" lines and in a
     last-line JSON result that parses, and passes its checks;
  2. the default seed reproduces the pinned rows (capture_replay at
     full size), and a perturbed pinned value makes fail_frac nonzero
     and the exit status nonzero;
  3. two seeds give different simulated counters and both pass
     validation;
  4. malformed arguments fail without printing a result;
  5. with --with-debug, an assert-enabled build (configured here into
     .bench_build/debug) is a failed run.
Exits nonzero on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: build())

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, *extra):
    """Run the benchmark; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def expect(ok, what):
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {what}")


def check_output(workload, trace, lines, result):
    tag = f"{workload} --trace {trace}"
    expect(result is not None and
           set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: last line is the JSON result")
    expect(result["correct"] and result["failed"] == 0 and
           result["attempted"] >= 1, f"{tag}: checks pass")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for m in wanted:
        expect(printed.get(m["name"]) == m["unit"] and
               result["metrics"].get(m["name"], {}).get("unit") == m["unit"],
               f"{tag}: {m['name']} printed in {m['unit']}")
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{tag}: result holds exactly the named metrics")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--with-debug", action="store_true",
                    help="also build Debug and check it is refused")
    args = ap.parse_args()

    for w in SPEC["workloads"]:
        for trace in (0, 1):
            code, lines, result = bench(w["name"], 1, trace, "--smoke")
            expect(code == 0, f"{w['name']} --trace {trace}: exit 0")
            check_output(w["name"], trace, lines, result)

    code, _, result = bench("capture_replay", 0, 0)
    expect(code == 0 and result and result["failed"] == 0,
           "default seed reproduces the pinned svc_list row")
    code, lines, result = bench("capture_replay", 0, 0, "--perturb-pinned")
    fail_frac = [l for l in lines if l.startswith("info fail_frac ")]
    expect(code != 0 and result and not result["correct"] and
           result["failed"] > 0 and fail_frac and
           float(fail_frac[0].split()[2]) > 0,
           "a perturbed pinned value makes fail_frac nonzero")

    cycles = []
    for seed in (1, 2):
        code, _, result = bench("abort_storm", seed, 0, "--smoke")
        expect(code == 0 and result and result["correct"],
               f"abort_storm seed {seed} passes validation")
        cycles.append(result["metrics"]["sim_Mcycles"]["value"])
    expect(cycles[0] != cycles[1],
           "two seeds give different simulated cycles")

    release = ROOT / ".bench_build" / "release" / "perfbench"
    runner = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    for name, value in (("--workload", "nope"), ("--seed", "x"),
                        ("--seconds", "121")):
        argv = {"--workload": "abort_storm", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        argv[name] = value
        flat = [a for kv in argv.items() for a in kv]
        for via, cmd in (("executable", [str(release), *flat]),
                         ("run.py", [*runner, *flat])):
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            expect(proc.returncode != 0 and "correct" not in proc.stdout,
                   f"malformed {name} is refused without a result ({via})")

    if args.with_debug:
        debug = run.build("Debug")
        proc = subprocess.run(
            [str(debug), "--workload", "capture_replay", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--smoke"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        expect(proc.returncode != 0 and result and not result["correct"],
               "an assert-enabled build is a failed run")
    print("selftest passed")


if __name__ == "__main__":
    main()
