#!/usr/bin/env python3
"""Record each workload's inputs, counters and regime on two seeds.

    python3 perfbench/record.py [--pin]

Makes one traced run (perfbench/run.py --trace 1) of every workload on the
default seed 0 and the held-out seed 1 and writes perfbench/RECORD.md: the
input descriptor (profile, scale, seed, requests, servers, format, bytes,
checksum), the output counters, the per-layer metrics, and whether the
workload stayed in the regime it was chosen for. With --pin it first
empties perfbench/pinned.json and then pins the counters of these runs,
full and small scale, as the values later runs must reproduce.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1)
# The property each workload was chosen for: (regime key, threshold, text).
REGIMES = {
    "dir_sun": ("provider_share_of_replay", 0.5,
                "the provider is most of the replay"),
    "prob_att": ("setup_share_of_wall", 0.5,
                 "set-up is most of the wall time"),
    "dir_att_sendall_t2": ("sent_frac", 0.85,
                           "nearly every request sends"),
    "engine_apache": ("origin_frac", 0.15,
                      "a sizeable share of requests reach the origin"),
}


def traced_run(workload, seed, mode):
    proc = subprocess.run(
        ["python3", str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1", "--mode", mode],
        capture_output=True, text=True, timeout=600)
    out = {}
    for line in proc.stdout.strip().splitlines():
        out.update(json.loads(line))
    if proc.returncode != 0 or not out.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} ({mode}) failed")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    pinned_path = HERE / "pinned.json"
    if args.pin:
        pinned_path.write_text("{}\n")
    pinned = {}
    lines = ["# Recorded workload runs", "",
             "Written by `python3 perfbench/record.py`: one traced run per "
             "workload and seed. Seed 0 is the default seed, seed 1 the "
             "held-out one. Timings come from one run on a shared 4-vCPU "
             "VM and only show where the time goes; counters are exact and "
             "pinned in `pinned.json`.", ""]
    for mode in ("small", "full"):
        for workload, (key, threshold, text) in REGIMES.items():
            for seed in SEEDS:
                out = traced_run(workload, seed, mode)
                pinned.setdefault(mode, {}).setdefault(workload, {})[
                    str(seed)] = out["counters"]
                if mode == "small":
                    continue
                value = out["regime"][key]
                held = "holds" if value > threshold else "DOES NOT HOLD"
                metrics = {k: v["value"] for k, v in out["metrics"].items()
                           if v["value"] != 0}
                lines += [f"## {workload}, seed {seed}", "",
                          f"Regime: {text}: {key} = {value:.3f} "
                          f"(needs > {threshold}) — {held}.", "",
                          "Input: `" + json.dumps(out["input"]) + "`", "",
                          "Counters: `" + json.dumps(out["counters"]) + "`",
                          "", "| per-layer metric | value |", "|---|---|"]
                lines += [f"| {k} | {v:.6g} |" for k, v in metrics.items()]
                lines.append("")
                print(f"{workload} seed {seed}: {key} {value:.3f} {held}",
                      flush=True)
    (HERE / "RECORD.md").write_text("\n".join(lines))
    if args.pin:
        pinned_path.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
