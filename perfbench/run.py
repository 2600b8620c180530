#!/usr/bin/env python3
"""Run one piggyweb benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload dir_sun --seed 0 --seconds 20 --trace 0

Builds perfbench/piggybench (a CMake package on top of ../src) into
.bench_build/, generates the workload's input from its profile and --seed
(not timed; cached per workload under .bench_build/inputs/), runs it, and
checks the output counters against perfbench/pinned.json where that file
pins the seed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (which also writes a
Chrome trace under .bench_build/traces/). A failed check or a program
error prints correct=false and exits 1; a failed build prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "cmake" / "piggybench"
INPUT_SUFFIX = {
    "dir_sun": ".clf",
    "prob_att": ".trc",
    "dir_att_sendall_t2": ".trc",
    "engine_apache": None,  # generated inside the run, in memory
}
# Input generation plus the run, after the build, must end within this.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds piggybench; exits 1 on failure."""
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "piggybench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            log("build failed")
            sys.exit(1)


def prepare_input(workload, mode, seed):
    """Returns (input path or None, input descriptor or None).

    One input file per workload and mode is kept, so repeated runs on a
    seed reuse it; a file is only ever renamed into place complete."""
    suffix = INPUT_SUFFIX[workload]
    if suffix is None:
        return None, None
    inputs = BUILD / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{mode}-seed{seed}"
    path = inputs / (stem + suffix)
    meta = inputs / (stem + ".json")
    if path.exists() and meta.exists():
        return path, json.loads(meta.read_text())
    for old in inputs.glob(f"{workload}-{mode}-seed*"):
        old.unlink()
    tmp = inputs / (stem + ".tmp")
    proc = subprocess.run(
        [str(BINARY), "generate", "--workload", workload, "--seed",
         str(seed), "--mode", mode, "--out", str(tmp)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"generating {workload} seed {seed} failed")
    descriptor = json.loads(proc.stdout.strip().splitlines()[-1])
    meta.write_text(json.dumps(descriptor) + "\n")
    tmp.rename(path)
    return path, descriptor


def pinned_errors(pinned_path, mode, workload, seed, counters):
    pinned = json.loads(Path(pinned_path).read_text())
    expected = pinned.get(mode, {}).get(workload, {}).get(str(seed))
    if expected is None:
        return []
    if counters == expected:
        return []
    diff = {k: [counters.get(k), v] for k, v in expected.items()
            if counters.get(k) != v}
    return [f"counters differ from pinned (got, pinned): {json.dumps(diff)}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=INPUT_SUFFIX)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--mode", choices=["full", "small"], default="full",
                        help="small: the self-test's scaled-down inputs")
    parser.add_argument("--pinned", default=str(HERE / "pinned.json"),
                        help="pinned counters (the self-test swaps in a "
                             "tampered copy)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    started = time.monotonic()
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        path, descriptor = prepare_input(args.workload, args.mode, args.seed)
        command = [str(BINARY), "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--mode", args.mode,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if path is not None:
            command += ["--input", str(path)]
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            chrome = traces / f"{args.workload}-{args.mode}-seed{args.seed}.json"
            command += ["--chrome-trace", str(chrome)]
        proc = subprocess.run(
            command, capture_output=True, text=True,
            timeout=max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started)))
        sys.stderr.write(proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        log(f"{args.workload} seed {args.seed}: {report['attempted']} "
            f"replays in {time.monotonic() - started:.1f} s")
        for sample in report["samples"]:
            log("  " + "  ".join(f"{k} {v:.4f}" for k, v in sample.items()))
        errors = list(report["errors"])
        if proc.returncode != 0 and not errors:
            errors.append(f"piggybench exited {proc.returncode}")
        failed = report["failed"]
        mismatch = pinned_errors(args.pinned, args.mode, args.workload,
                                 args.seed, report["counters"])
        if mismatch:
            # Every replay produced these counters (replays that disagree
            # with the first already count as failed).
            errors += mismatch
            failed = report["attempted"]
        if errors and failed == 0:
            failed = report["attempted"]
        result = {"correct": not errors, "attempted": report["attempted"],
                  "failed": failed, "metrics": report["metrics"]}
        for error in errors:
            log(error)
        print(json.dumps({"input": descriptor or report["input"]}))
        if report["regime"]:
            print(json.dumps({"regime": report["regime"]}))
        print(json.dumps({"counters": report["counters"]}))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            KeyError, IndexError) as error:
        log(f"error: {error!r}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
