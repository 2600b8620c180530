#!/usr/bin/env python3
"""Self-test of the benchmark at small scale.

    python3 perfbench/selftest.py

Runs every workload run.py knows (BENCHMARK.json's, and prob_att and
dir_att_sendall_t2, which are kept runnable by hand) on the scaled-down
inputs (--mode small), untraced and traced, and checks:
  * the result line has exactly the contract's keys, correct=true, no
    failed replays;
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) list, and end-to-end values are > 0;
  * on evaluator workloads the timed layer calls plus sim.loop_other_s
    add up to sim.replay_s;
  * a tampered pinned counter makes the run fail with exit code 1;
  * run from a directory that holds only BENCHMARK.json and the benchmark,
    run.py exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build" / "selftest"
WORKLOADS = ["dir_sun", "prob_att", "dir_att_sendall_t2", "engine_apache"]
LAYER_CALLS = ["trace.window_s", "volume.provider_s", "core.filter_s",
               "sim.accumulate_s", "sim.loop_other_s"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT, pinned=None):
    command = ["python3", str(cwd / "perfbench" / "run.py"), "--workload",
               workload, "--seed", "0", "--seconds", "1", "--trace",
               str(trace), "--mode", "small"]
    if pinned is not None:
        command += ["--pinned", str(pinned)]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_result(name, rc, result, spec_metrics, positive):
    check(rc == 0, f"{name}: exit code 0 (got {rc})")
    if result is None:
        check(False, f"{name}: printed a result")
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{name}: result keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{name}: output check passed")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{name}: metric names and units match BENCHMARK.json")
    if positive:
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{name}: every end-to-end metric is > 0")


def main():
    for name in WORKLOADS:
        rc, result = run(name, 0)
        check_result(f"{name} untraced", rc, result, SPEC["end_to_end"], True)
        rc, result = run(name, 1)
        check_result(f"{name} traced", rc, result, SPEC["per_layer"], False)
        if result and not name.startswith("engine"):
            m = {k: v["value"] for k, v in result["metrics"].items()}
            parts = sum(m[k] for k in LAYER_CALLS)
            check(abs(parts - m["sim.replay_s"]) <= 1e-6 * m["sim.replay_s"]
                  + 1e-6, f"{name} traced: layer calls + loop_other = replay")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    pinned = json.loads((HERE / "pinned.json").read_text())
    pinned["small"]["dir_sun"]["0"]["piggyback_messages"] += 1
    tampered = SCRATCH / "pinned.json"
    tampered.write_text(json.dumps(pinned))
    rc, result = run("dir_sun", 0, pinned=tampered)
    check(rc == 1 and result is not None and result["correct"] is False
          and result["failed"] == result["attempted"],
          "a counter that differs from the pinned value fails the run")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, result = run("dir_sun", 0, cwd=bare)
    check(rc != 0 and result is None,
          "without the sources: non-zero exit and no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
