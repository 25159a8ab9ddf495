"""The permcodes benchmark: timed CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every command runs in a fresh ``python -m permcodes.cli`` process, one at a
time (a closed loop with one client), because that is how the tool is used
and because the package's in-process caches (GF tables, derangement counts,
cached code distances) would otherwise skip work every user run pays.  The
commands are started by perfbench/launcher.py, a small process of its own,
so that their peak RSS does not include this script's memory.

A run repeats passes until ``--seconds`` is used up.  A pass takes the next
workload seed from the workload's pool (see golden.json; the order is
shuffled by ``--seed``), generates its input files (set-up), then runs the
workload's timed command sequence and checks every exit code and output
against the expected ones.  Metrics are medians over the passes of a run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
twice, untraced and then traced through perfbench/tracer.py, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it give the same numbers for people, with quartiles, sample counts
and the environment.  README.md in this directory documents every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".perfbench_work"

clock = time.monotonic  # system-wide on Linux, so comparable with the tracer's

# A hung command is killed after CMD_TIMEOUT seconds and counted as failed;
# no command is left running past HARD_LIMIT seconds after the run starts.
CMD_TIMEOUT = 60.0
HARD_LIMIT = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Time a command kind takes within one pass; "setup" is the set-up step.
KINDS = ("construct", "verify", "code_search", "field", "bounds")

PER_LAYER = {
    "gf.tables_s": "s",
    "gf.table_entries": "count",
    "gf.field_make_s": "s",
    "linear.min_distance_s": "s",
    "linear.codewords_scanned": "count",
    "linear.search_trials": "count",
    "linear.search_accept_ratio": "ratio",
    "linear.dual_search_s": "s",
    "linear.parity_check_s": "s",
    "mds.codegen_s": "s",
    "perms.coset_walk_s": "s",
    "perms.bucketing_s": "s",
    "perms.cosets": "count",
    "perms.translates": "count",
    "perms.bucket_size": "count",
    "perms.bucket_over_floor": "ratio",
    "perms.distinct_syndromes": "count",
    "perms.verify_s": "s",
    "perms.verify_rows": "count",
    "perms.verify_pairs": "count",
    "perms.verify_pairs_per_s": "1/s",
    "perms.clique_s": "s",
    "perms.clique_vertices": "count",
    "perms.code_io_s": "s",
    "bounds.report_s": "s",
    "bounds.rows": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_spans": "count",
    **{f"cmd.{kind}_s": "s" for kind in KINDS},
}

# Layer time metrics: busy time in any of these spans (nested calls counted
# once).  perms.bucketing_s and cli.self_s are self times, computed apart.
BUSY = {
    "gf.tables_s": ("gf.tables",),
    "gf.field_make_s": ("gf.field_make",),
    "linear.min_distance_s": ("linear.min_distance", "linear.nonzero_weight_set"),
    "linear.dual_search_s": ("linear.find_full_weight_dual_codeword",),
    "linear.parity_check_s": ("linear.parity_check", "linear.parity_check_with_ones_row"),
    "mds.codegen_s": ("mds.reed_solomon", "mds.extended_rs"),
    "perms.coset_walk_s": ("perms.coset_representatives",),
    "perms.verify_s": ("perms.code_min_distance",),
    "perms.clique_s": ("perms.max_code_in_K", "perms.max_binary_code", "perms.lift_code_into_K"),
    "perms.code_io_s": ("perms.read_permutation_code", "perms.write_permutation_code"),
    "bounds.report_s": (
        "bounds.bound_report",
        "bounds.ratio_new_old",
        "bounds.ratio_amds_old",
        "bounds.amds_vs_old_threshold",
        "bounds.general_firstbound",
    ),
}

# Count metrics: sum of the span counts (see tracer.COUNTS).
COUNTED = {
    "gf.table_entries": ("gf.tables",),
    "linear.codewords_scanned": ("linear.min_distance", "linear.nonzero_weight_set"),
    "perms.distinct_syndromes": ("perms.syndrome_buckets",),
    "perms.verify_rows": ("perms.code_min_distance",),
    "perms.clique_vertices": ("perms.max_clique",),
    "bounds.rows": ("bounds.bound_report", "bounds.ratio_new_old", "bounds.ratio_amds_old"),
}


# ---------------------------------------------------------------------------
# Workloads.  A step is (kind, CLI arguments, expected exit code); the kind
# "tamper" is the benchmark's own file edit, untimed.  Files are relative to
# the pass directory, which is the working directory of every command.

PROBE = ("setup", "field --q 2", 0)


def construct_sweep(s: int) -> tuple[list, list]:
    setup = [PROBE, ("setup", f"code-search --n 9 --k 5 --d 4 --q 4 --seed {s} --out c954.txt", 0)]
    steps = [
        ("construct", f"construct --source rs --q 9 --n 9 --k 5 --d 5 --gamma identity "
                      f"--seed {s} --budget 400000 --cert a.cert", 0),
        ("construct", f"construct --source file --code-file c954.txt --d 4 --gamma exact "
                      f"--seed {s} --budget 100000 --cert b.cert", 0),
    ]
    return setup, steps


def verify_heavy(s: int) -> tuple[list, list]:
    setup = [PROBE, ("setup", f"code-search --n 8 --k 5 --d 3 --q 4 --seed {s} --out c853.txt", 0)]
    steps = [
        ("construct", f"construct --source file --code-file c853.txt --d 3 --gamma lift "
                      f"--seed {s} --out pc.txt --cert c.cert", 0),
        ("verify", "verify pc.txt --d 3", 0),
        ("tamper", "pc.txt bad.txt", None),
        ("verify", "verify bad.txt --d 3", 3),
    ]
    return setup, steps


def codes_bounds(s: int) -> tuple[list, list]:
    steps = [
        ("field", "field --q 243 --tables", 0),
        ("code_search", f"code-search --n 12 --k 5 --d 7 --q 16 --seed {s} --trials 200", 0),
        ("bounds", "compare --mode amds-vs-old --q 8,16 --alpha 2 --b 3/4", 0),
        ("bounds", "compare --mode new-vs-old --n-min 6 --n-max 200 --d-frac 3/4", 0),
        ("bounds", "table --d 6 --n-min 7 --n-max 60", 0),
    ]
    return [PROBE], steps


WORKLOADS = {
    "construct-sweep": construct_sweep,
    "verify-heavy": verify_heavy,
    "codes-bounds": codes_bounds,
}


def tamper(src: Path, dst: Path) -> None:
    """Copy a code file, replacing its last row by the first row with its
    first two entries swapped: distance 2 from the first row, no duplicate."""
    lines = src.read_text().splitlines()
    first = lines[1].split()
    first[0], first[1] = first[1], first[0]
    lines[-1] = " ".join(first)
    dst.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Output checks


AMDS_COLUMNS = ("q", "n", "d", "a2", "ratio_exact")


def observe(args: str, stdout: bytes):
    """What of a command's stdout must match the seed commit's output.

    ``compare --mode amds-vs-old`` is checked by named columns only, so a
    column added later does not count as a wrong answer; every other
    command must reproduce its stdout byte for byte (compared by digest).
    """
    if "amds-vs-old" in args.split():
        lines = stdout.decode().splitlines()
        header = lines[0].split(",")
        idx = [header.index(c) for c in AMDS_COLUMNS]
        return [[row.split(",")[i] for i in idx] for row in lines[1:]]
    return hashlib.sha256(stdout).hexdigest()


def read_cert(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def cert_problems(cert: dict[str, str], d: int) -> list[str]:
    problems = []
    if int(cert["bucket_size"]) < int(cert["guaranteed_floor"]):
        problems.append("bucket_size below guaranteed_floor")
    vd = cert["verified_distance"]
    if vd != "inf" and int(vd) < d:
        problems.append(f"verified_distance {vd} below d={d}")
    return problems


def flag(args: str, name: str) -> str | None:
    toks = args.split()
    return toks[toks.index(name) + 1] if name in toks else None


# ---------------------------------------------------------------------------
# Running one command


class Launcher:
    """The process every command is started from (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.floor_kb = None

    def run(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(line)
        self.floor_kb = reply["floor_kb"]
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=HARD_LIMIT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def execute(launcher: Launcher, args: str, cwd: Path, tag: str, traced: bool,
            timeout: float) -> dict:
    """Run one CLI command in a fresh process; time it and take its rusage."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    spans_path = cwd / f"{tag}.spans.json"
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path)]
    else:
        argv = [sys.executable, "-m", "permcodes.cli"]
    reply = launcher.run(
        argv=argv + args.split(), cwd=str(cwd), env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=str(out_path), stderr=str(err_path), timeout=timeout,
    )
    rec = {
        "args": args,
        "rc": reply["rc"],
        "timed_out": reply["timed_out"],
        "wall": reply["ended"] - reply["spawned"],
        "rss_mb": reply["maxrss_kb"] / 1024.0,
        "out": out_path,
        "stdout_bytes": out_path.stat().st_size,
        "spawned": reply["spawned"],
    }
    if traced and spans_path.exists():
        rec["trace"] = json.loads(spans_path.read_text())
    return rec


# ---------------------------------------------------------------------------
# One pass


class Checker:
    """Counts commands attempted and failed against the expected outputs."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected  # {seed: [[rc, observation], ...]} or None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, seed: int, index: int, want_rc: int, rec: dict, cwd: Path) -> list:
        """Record one command's outcome; return its observation."""
        self.attempted += 1
        problems = []
        obs = None
        if rec["timed_out"]:
            problems.append("timed out")
        elif rec["rc"] != want_rc:
            problems.append(f"exit code {rec['rc']}, expected {want_rc}")
        else:
            try:
                obs = observe(rec["args"], rec["out"].read_bytes())
            except (OSError, ValueError, IndexError, UnicodeDecodeError) as exc:
                problems.append(f"unreadable output: {exc}")
            if self.expected is not None and obs is not None:
                if [rec["rc"], obs] != self.expected[str(seed)][index]:
                    problems.append("output differs from the seed commit's")
            cert = flag(rec["args"], "--cert")
            if cert is not None and not problems:
                try:
                    rec["cert"] = read_cert(cwd / cert)
                    problems += cert_problems(rec["cert"], int(flag(rec["args"], "--d")))
                except (OSError, KeyError, ValueError) as exc:
                    problems.append(f"bad certificate: {exc!r}")
        if problems:
            self.failed += 1
            self.problems.append(f"seed {seed} `{rec['args']}`: {'; '.join(problems)}")
        return [rec["rc"], obs]


def run_pass(launcher: Launcher, workload: str, seed: int, pdir: Path, checker: Checker,
             trace: bool, hard_deadline: float) -> dict:
    """Set up and run one pass; return its records.

    Returns {"setup": seconds, "setup_rss_mb": MB, "plain": [records],
    "traced": [records] (trace only), "observed": [[rc, observation], ...]}.
    """
    setup, steps = WORKLOADS[workload](seed)
    observed = []

    def command(index, kind, args, want_rc, traced):
        timeout = min(CMD_TIMEOUT, hard_deadline - clock())
        rec = execute(launcher, args, pdir, f"{'t' if traced else 'c'}{index}", traced, timeout)
        rec["kind"] = kind
        obs = checker.check(seed, index, want_rc, rec, pdir)
        if not traced:
            observed.append(obs)
        return rec

    t0 = clock()
    pdir.mkdir(parents=True)
    setup_recs = [command(i, *step, False) for i, step in enumerate(setup)]
    result = {"setup": clock() - t0, "setup_rss_mb": max(r["rss_mb"] for r in setup_recs)}
    # The traced sequence reruns the plain one in the same directory and is
    # checked against the same expected outputs.
    for mode in ("plain", "traced") if trace else ("plain",):
        recs = []
        index = len(setup)
        for kind, args, want_rc in steps:
            if kind == "tamper":
                src, dst = args.split()
                try:
                    tamper(pdir / src, pdir / dst)
                except (OSError, IndexError):
                    pass  # no valid file to tamper with: the next verify fails
                continue
            recs.append(command(index, kind, args, want_rc, mode == "traced"))
            index += 1
        result[mode] = recs
    result["observed"] = observed
    return result


# ---------------------------------------------------------------------------
# Metrics


def _ancestors(spans: list, i: int):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def busy_time(spans: list, names: tuple) -> float:
    """Time inside any span named in ``names``, nested ones counted once."""
    return sum(
        s[2] - s[1]
        for i, s in enumerate(spans)
        if s[0] in names and not any(a in names for a in _ancestors(spans, i))
    )


def self_time(spans: list, name: str) -> float:
    """Time inside spans called ``name`` minus the time of their child spans."""
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] == name:
            total += s[2] - s[1]
            total -= sum(c[2] - c[1] for c in spans if c[3] == i)
    return total


def plain_metrics(p: dict) -> dict:
    recs = p["plain"]
    out = {
        "wall_s": sum(r["wall"] for r in recs),
        "setup_s": p["setup"],
        "peak_rss_mb": max([p["setup_rss_mb"]] + [r["rss_mb"] for r in recs]),
    }
    for kind in KINDS:
        out[f"cmd.{kind}_s"] = sum(r["wall"] for r in recs if r["kind"] == kind)
    return out


def layer_metrics(recs: list) -> dict:
    """Per-layer metrics of one traced pass (sums over its commands)."""
    m = {name: 0.0 for name in PER_LAYER if not name.startswith("cmd.")}
    m["search_hits"] = 0
    absent = set()
    bucket_total = floor_total = 0
    for r in recs:
        m["trace.wall_s"] += r["wall"]
        m["cli.stdout_bytes"] += r["stdout_bytes"]
        if "cert" in r:
            c = r["cert"]
            m["perms.cosets"] += int(c["coset_count"])
            m["perms.translates"] += int(c["sweep_size"])
            bucket_total += int(c["bucket_size"])
            floor_total += int(c["guaranteed_floor"])
        t = r.get("trace")
        if t is None:
            continue
        spans = t["spans"]
        absent.update(t["absent"])
        m["cli.import_s"] += t["imported"] - r["spawned"]
        m["cli.self_s"] += self_time(spans, "cli.main")
        m["perms.bucketing_s"] += self_time(spans, "perms.syndrome_buckets")
        for metric, names in BUSY.items():
            m[metric] += busy_time(spans, names)
        for metric, names in COUNTED.items():
            m[metric] += sum(s[4] or 0 for s in spans if s[0] in names)
        for i, s in enumerate(spans):
            if s[0] == "perms.code_min_distance" and s[4]:
                m["perms.verify_pairs"] += s[4] * (s[4] - 1) // 2
            if s[0] == "linear.min_distance" and "linear.random_code_search" in _ancestors(spans, i):
                m["linear.search_trials"] += 1
            if s[0] == "linear.random_code_search":
                m["search_hits"] += s[4] or 0
    m["perms.bucket_size"] = bucket_total
    m["perms.bucket_over_floor"] = bucket_total / floor_total if floor_total else 0.0
    trials = m["linear.search_trials"]
    m["linear.search_accept_ratio"] = m.pop("search_hits") / trials if trials else 0.0
    m["perms.verify_pairs_per_s"] = (
        m["perms.verify_pairs"] / m["perms.verify_s"] if m["perms.verify_s"] else 0.0
    )
    m["trace.absent_spans"] = len(absent)
    m["absent"] = sorted(absent)
    del m["trace.overhead_s"]  # a difference of medians, computed per run
    return m


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99.9, 99.0, 90.0):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(values, n=1000)[int(pct * 10) - 1]
            break
    return out


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "permcodes").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None  # a checkout without .git is identified by its source digest
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "permcodes_commit": commit,
        "permcodes_src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# A run


def pool_order(golden: dict, workload: str, seed: int) -> list[int]:
    pool = list(golden["workloads"][workload]["pool"])
    random.Random(seed).shuffle(pool)
    return pool


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Run passes for ``seconds``; return metrics and counts."""
    started = clock()
    deadline, hard_deadline = started + seconds, started + HARD_LIMIT
    order = pool_order(golden, workload, seed)
    checker = Checker(golden["workloads"][workload]["expect"])
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    launcher = Launcher()
    passes = []
    try:
        while True:
            t0 = clock()
            i = len(passes)
            passes.append(run_pass(launcher, workload, order[i % len(order)], work / f"p{i}",
                                   checker, trace, hard_deadline))
            shutil.rmtree(work / f"p{i}")
            now = clock()
            if now + (now - t0) > deadline or now > hard_deadline:
                break
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    samples = defaultdict(list)
    for p in passes:
        for k, v in plain_metrics(p).items():
            samples[k].append(v)
        if trace:
            for k, v in layer_metrics(p["traced"]).items():
                samples[k].append(v)
    return {"samples": samples, "checker": checker, "passes": len(passes),
            "seeds": [order[i % len(order)] for i in range(len(passes))],
            "launcher_rss_mb": launcher.floor_kb / 1024.0 if launcher.floor_kb else None}


def report(workload: str, seed: int, seconds: int, trace: int, golden: dict) -> dict:
    res = run(workload, seed, seconds, bool(trace), golden)
    samples, checker = res["samples"], res["checker"]
    env = environment(workload, seed, seconds, trace)
    env.update(passes=res["passes"], pool_seeds=res["seeds"], commands=checker.attempted,
               launcher_rss_mb=res["launcher_rss_mb"],
               runner_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print("env: " + json.dumps(env))
    stats = {k: summary(v) for k, v in samples.items() if k != "absent"}
    if trace:
        stats["trace.overhead_s"] = summary(
            [statistics.median(samples["trace.wall_s"]) - statistics.median(samples["wall_s"])]
        )
        absent = sorted({a for lst in samples["absent"] for a in lst})
        print("absent spans: " + (", ".join(absent) if absent else "none"))
    shown = {**END_TO_END, **{f"cmd.{k}_s": "s" for k in KINDS}}
    if trace:
        shown.update(PER_LAYER)
    for name, unit in shown.items():
        s = stats[name]
        tail = next((f"  {k}={v:.6g}" for k, v in s.items() if k.startswith("p")), "")
        quart = f"  q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"{name}: {s['median']:.6g} {unit}{quart}{tail}  n={s['n']}")
    fail_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"fail_rate: {fail_rate:.6g} ratio  ({checker.failed}/{checker.attempted} commands)")
    for problem in checker.problems:
        print(f"FAILED: {problem}")
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": stats[k]["median"], "unit": u} for k, u in names.items()},
    }


def smoke(golden: dict) -> int:
    """One short run of every workload in both modes; every metric must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = report(workload, 0, 1, trace, golden)
            print(json.dumps(result))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"SMOKE FAIL {workload} trace={trace}: metrics {sorted(got)} "
                      f"vs {sorted(want)}, correct={result['correct']}")
                ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload once, check metric names")
    args = ap.parse_args()
    if not (SRC / "permcodes" / "cli.py").is_file():
        print(f"error: no permcodes source at {SRC}; run from a permcodes checkout", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    if args.smoke:
        return smoke(golden)
    if args.workload is None:
        ap.error("--workload is required")
    result = report(args.workload, args.seed, args.seconds, args.trace, golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
