"""Run every workload several times and record the results as BENCH_<name>.json.

Usage, from the root of a checkout:

    python3 perfbench/record.py NAME

For each workload, runs ``run.py --trace 0`` once per seed in SEEDS and
``run.py --trace 1`` once per seed in TRACE_SEEDS, one run at a time, each
for the ``run_seconds`` of BENCHMARK.json.  This is the method of
BENCH_seed.json, so every record compares with it.  Writes perfbench/BENCH_NAME.json with every run's result line and
environment, and per metric the median, quartiles and spread (quartile
distance over median) across runs.  For the traced runs it adds the layer
split: each layer time as a share of the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)

# Layer times that are not a layer's share of the traced pass.
NOT_A_LAYER = {"trace.wall_s", "trace.overhead_s"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=run.HARD_LIMIT + 60,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    env = next(json.loads(x[5:]) for x in lines if x.startswith("env: "))
    return {"env": env, "result": json.loads(lines[-1])}


def across(runs: list[dict]) -> dict:
    """Median, quartiles and relative spread of each metric across runs."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "unit": runs[0]["result"]["metrics"][name]["unit"], "runs": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out[name] = entry
    return out


def layer_split(per_layer: dict) -> dict:
    wall = per_layer["trace.wall_s"]["median"]
    return {
        name: m["median"] / wall
        for name, m in per_layer.items()
        if m["unit"] == "s" and name not in NOT_A_LAYER and not name.startswith("cmd.")
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("name")
    args = ap.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"workloads": {}}
    for workload in run.WORKLOADS:
        entry = {}
        for trace, key, chosen in ((0, "end_to_end", SEEDS), (1, "per_layer", TRACE_SEEDS)):
            runs = [run_once(workload, s, seconds, trace) for s in chosen]
            for r in runs:
                print(f"{workload} trace={trace} seed={r['env']['seed']}: "
                      + json.dumps(r["result"]["metrics"]), flush=True)
            entry[key] = across(runs)
            entry[f"{key}_runs"] = runs
        entry["layer_split"] = layer_split(entry["per_layer"])
        doc["workloads"][workload] = entry
    path = run.BENCH / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
