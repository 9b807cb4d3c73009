"""Alternating parent/change pairs of the benchmark, summarised into one
BENCH_<n>.json.

    python3 scripts/bench_pairs.py --first-seed SEED --out BENCH_<n>.json [--claim TEXT] [--work DIR]

The parent is HEAD and the change is the working tree: each side is a git
clone of this repository under DIR, at `parent/` and `change/`, paths of
equal length, so that no side pays for a longer path; the change's clone
takes the working tree's diff against HEAD, so files new to the tree must
be staged first.  On every BENCHMARK.json workload, each of PAIRS pairs
runs the unchanged `perfbench/run.py --trace 0` for BENCHMARK.json's
run_seconds once per side on one seed, the parent first on even offsets
from --first-seed and the change first on odd ones, and reads the side's
run record.  Pass seeds no earlier measurement of the change has used.
Per workload and end-to-end metric the file holds the median and
inclusive quartiles of each side, the pairs the change wins, the relative
change of the medians, whether that gap exceeds the parent's interquartile
range, and whether it stays within BENCHMARK.json's bound (read as a
fraction of the parent's median); a metric whose interquartile range
exceeds that bound on either side is marked unresolved.  Under
`diagnostics`, the same summary without a bound is given for
main_thread_cpu_s, each run's median over its rounds of the CPU time of
the timed body's own thread: cpu_s also counts the CPU that other threads
of the process spend in the body, such as an idle BLAS worker spinning
after numpy's import.  Steal time, seeds and each side's provenance come
from the records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
RECORD_FIELDS = ("attempted", "correct", "failed", "steal_s")
MAIN_THREAD = "main_thread_cpu_s"  # a diagnostic beside the end-to-end metrics, without a bound


def git(*args: str, cwd: Path = ROOT, **kw) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True, **kw).stdout


def checkout(dest: Path, worktree: bool) -> None:
    """A clone of this repository at HEAD, plus the working tree's diff
    against HEAD when `worktree`."""
    shutil.rmtree(dest, ignore_errors=True)
    git("clone", "-q", str(ROOT), str(dest))
    git("checkout", "-q", "--detach", "HEAD", cwd=dest)
    diff = git("diff", "--binary", "HEAD") if worktree else ""
    if diff:
        git("apply", "--whitespace=nowarn", "-", cwd=dest, input=diff)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: its end-to-end medians and the record's
    counts, steal time and provenance."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(f"{workload}: "))
    record = json.loads((tree / line.rsplit("record=", 1)[1]).read_text())
    out = {name: m["value"] for name, m in record["metrics"].items()}
    out.update({k: record[k] for k in RECORD_FIELDS}, rounds=len(record["rounds"]))
    out[MAIN_THREAD] = statistics.median(r[MAIN_THREAD] for r in record["rounds"])
    return {"result": out, "provenance": record["provenance"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(pairs: list[dict], metric: dict) -> dict:
    name, bound = metric["name"], metric.get("bound")
    sign = 1.0 if metric["better"] == "lower" else -1.0
    vals = {side: [p[side][name] for p in pairs] for side in SIDES}
    med = {side: statistics.median(v) for side, v in vals.items()}
    quart = {side: quartiles(v) for side, v in vals.items()}
    iqr = {side: quart[side][1] - quart[side][0] for side in SIDES}
    rel = med["change"] / med["parent"] - 1.0
    out = {
        "pairs": len(pairs),
        "parent_median": med["parent"],
        "change_median": med["change"],
        "parent_quartiles": quart["parent"],
        "change_quartiles": quart["change"],
        "change_better_pairs": sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs),
        "change_vs_parent": rel,
        "median_gap_exceeds_parent_iqr": sign * (med["parent"] - med["change"]) > iqr["parent"],
    }
    if bound is not None:
        out.update(bound=bound, within_bound=sign * rel <= bound,
                   unresolved=any(iqr[side] / med[side] > bound for side in SIDES))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-seed", type=int, required=True, help="seeds no earlier run of the change used")
    ap.add_argument("--claim", default=None, help="the claim the pairs test, stored with them")
    ap.add_argument("--work", default=None, help="where the two clones go; default ./bench-pairs-work")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    work = Path(args.work or "bench-pairs-work").resolve()
    trees = {side: work / side for side in SIDES}
    checkout(trees["parent"], worktree=False)
    checkout(trees["change"], worktree=True)
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    out = {
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "machine": f"{cpu_model()}, {len(os.sched_getaffinity(0))} CPUs available, Python {platform.python_version()}",
        "method": "alternating pairs (parent first on even offsets from the first seed, change first on odd), "
                  "each side a git clone at a path of equal length, written by scripts/bench_pairs.py; "
                  "values are each run's medians from its perfbench record; quartiles are inclusive",
        "revisions": {"parent": "HEAD", "change": "the working tree"},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs, provenance = [], {}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_side(trees[side], workload, seed, seconds)
                pair[side] = run["result"]
                provenance[side] = {k: v for k, v in run["provenance"].items() if k != "seed"}
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{side} cpu_s={pair[side]['cpu_s']:.3f} main={pair[side][MAIN_THREAD]:.3f}" for side in SIDES),
                file=sys.stderr, flush=True)
        out["workloads"][workload] = {
            "pairs": pairs,
            "provenance": provenance,
            "seeds": seeds,
            "steal_s": {side: sum(p[side]["steal_s"] or 0.0 for p in pairs) for side in SIDES},
            "summary": {m["name"]: summarise(pairs, m) for m in bench["end_to_end"]},
            "diagnostics": {MAIN_THREAD: summarise(pairs, {"name": MAIN_THREAD, "better": "lower"})},
        }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
