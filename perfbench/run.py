#!/usr/bin/env python3
"""End-to-end benchmark of v2dsve: builds bench_e2e and runs one workload.

    python3 perfbench/run.py --workload pulse-tiles --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every run configures perfbench/ (which
links the repository's own libv2d) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, and brings the build up to date; only the first run
compiles everything.  The benchmark binary prints a provenance line
and, as the last stdout line, one JSON result object whose metrics are the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  The metric names are checked against BENCHMARK.json.  Exit
status is nonzero when the build fails, any operation fails or an output
pin does not match.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["pulse-tiles", "sedov-ckpt", "farm-mix"]
RUN_LIMIT_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure, then bring bench_e2e up to date; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)],
             ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
              "-j", jobs]]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (log: %s)" % log)
    return build_dir / "bench_e2e"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--pins", str(BENCH_DIR / "pins.txt"),
           "--out-dir", str(target / "out")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (args.workload, RUN_LIMIT_S))
    lines = proc.stdout.splitlines()
    if not lines:
        fail("bench_e2e printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON result (exit %d)" % proc.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for line in lines:
        print(line)
    print("perfbench: %s ran %.1f s" % (args.workload,
                                        time.monotonic() - started),
          file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
