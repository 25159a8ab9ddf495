"""Choose each workload's seed pool and record the expected outputs.

Usage, from the root of a checkout whose code is the reference:

    python3 perfbench/make_golden.py

Writes perfbench/golden.json: for every workload, a pool of POOL_SIZE
workload seeds and, for each seed, the exit code and stdout observation of
every command of a pass (see run.observe).  The benchmark checks later
commits against these.  Regenerate only when the expected output changes on
purpose, and say so where the change is recorded.

Pools hold seeds on which every command succeeds and the problem size is
the same, so that a run's medians do not depend on which seeds it drew:

* construct-sweep: the first seeds from 0 up.  Sweep sizes do not depend on
  the seed; bucket sizes vary a little.
* verify-heavy: seeds whose lifted construction keeps 1,392 rows (as seed 1
  does), so every verification checks the same number of pairs.  Some
  seeds (about a third of 0-33) have no full-weight dual codeword, and the
  construct exits 2; most of the rest keep 1,296 rows.
* codes-bounds: seeds whose [12,5,7]_16 search hits at exactly trial 24 (as
  seed 1 does), so every search scans 24 codes.  Hits are geometric with
  mean 24 trials, so an unfiltered seed would scan 1 to 100+ codes.  The
  search itself decides: a seed qualifies when 24 trials hit and 23 do not.
  Scanning seeds 0-470 for the current pool takes about 25 minutes on a
  2-vCPU Xeon.

Pool seeds are taken from 0 up to MAX_SEED; a workload that cannot fill its
pool there stops the script with an error.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

POOL_SIZE = 8
MAX_SEED = 2000
SEARCH = {"n": 12, "k": 5, "d": 7, "q": 16, "trials": 24}


def search_candidates():
    """Seeds whose code search (SEARCH) first hits at exactly trial 24."""
    sys.path.insert(0, str(run.SRC))
    from permcodes import linear

    n, k, d, q, want = (SEARCH[x] for x in ("n", "k", "d", "q", "trials"))
    for seed in range(MAX_SEED + 1):
        if (linear.random_code_search(n, k, d, q, seed, want) is not None
                and linear.random_code_search(n, k, d, q, seed, want - 1) is None):
            yield seed


def accept(workload: str, result: dict) -> bool:
    if workload == "verify-heavy":
        return result["plain"][0].get("cert", {}).get("bucket_size") == "1392"
    return True


def pool(launcher: run.Launcher, workload: str, workdir: Path) -> dict:
    seeds = search_candidates() if workload == "codes-bounds" else range(MAX_SEED + 1)
    chosen = {}
    for seed in seeds:
        checker = run.Checker(None)
        result = run.run_pass(launcher, workload, seed, workdir / f"{workload}-{seed}", checker,
                              False, run.clock() + run.HARD_LIMIT)
        if checker.failed == 0 and accept(workload, result):
            chosen[str(seed)] = result["observed"]
            print(f"{workload}: seed {seed}", flush=True)
            if len(chosen) == POOL_SIZE:
                return {"pool": [int(s) for s in chosen], "expect": chosen}
    raise SystemExit(f"{workload}: only {len(chosen)} of {POOL_SIZE} pool seeds in 0-{MAX_SEED}")


def main() -> int:
    golden = {"workloads": {}}
    run.WORK.mkdir(exist_ok=True)
    launcher = run.Launcher()
    try:
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            for workload in run.WORKLOADS:
                golden["workloads"][workload] = pool(launcher, workload, Path(tmp))
    finally:
        launcher.close()
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
