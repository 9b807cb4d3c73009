"""Benchmark runner for sharpwt: runs whole rounds of a workload, each round
in a fresh process, for a set time, and reports medians.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it reports the end-to-end metrics (cpu_s, setup_s,
peak_rss_mb); with --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; a per-run record with provenance goes
to perfbench/out/records/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("lemma-scans", "exponent-fits", "weights-decomp")
END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "OPENBLAS_CORETYPE", "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")


class RoundError(RuntimeError):
    pass


def steal_seconds() -> float | None:
    """Cumulative hypervisor steal time of the machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(seed: int) -> dict:
    """Where the run came from; a checkout that is not a git work tree has
    no commit, so the sources are also identified by their digest."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_round(workload: str, seed: int, trace: bool, deadline: float, setup_only: bool = False) -> dict:
    work = OUT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RoundError(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise RoundError(f"{workload} round printed no result: {exc}") from exc
        if trace:
            shutil.copyfile(work / "spans.csv", OUT / f"spans-{workload}.csv")
        return rec
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round did not finish within the run limit") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds until `seconds` of wall time have passed: at least one
    round, and with tracing at least one untraced and one traced round.
    Without tracing, each round is followed by one more set-up-only process,
    so setup_s is the median of twice as many samples as cpu_s."""
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    steal0 = steal_seconds()
    rounds: list[dict] = []
    setups: list[float] = []
    while True:
        start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            rounds.append(run_round(workload, seed, traced, deadline))
        if not trace:
            setups.append(rounds[-1]["setup_s"])
            setups.append(run_round(workload, seed, False, deadline, setup_only=True)["setup_s"])
        now = time.monotonic()
        if now - t0 >= seconds or now + 1.5 * (now - start) > deadline:
            break
    steal1 = steal_seconds()
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    check_failures = [msg for r in rounds for msg in r["check_failures"]]
    if trace:
        metrics, extra = layer_metrics(plain, traced)
        check_failures += extra
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END}
        metrics["setup_s"]["value"] = statistics.median(setups)
    return {
        "workload": workload,
        "correct": not check_failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "wall_s": time.monotonic() - t0,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "check_failures": check_failures,
        "operation_failures": [msg for r in rounds for msg in r["failures"]],
        "rounds": [{k: v for k, v in r.items() if k not in ("layers", "failures")} for r in rounds],
        "setup_samples_s": setups,
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    from tracer import metric_names

    problems = []
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name, unit in metric_names():
        values = [lay[name] for lay in layers]
        if unit != "s" and len(set(values)) > 1:
            problems.append(f"per-layer {name} differs between traced rounds: {values}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    cpu_plain = statistics.median(r["cpu_s"] for r in plain)
    cpu_traced = statistics.median(r["cpu_s"] for r in traced)
    metrics["trace.overhead_s"] = {"value": cpu_traced - cpu_plain, "unit": "s"}
    return metrics, problems


def write_record(result: dict, seconds: float, trace: bool, seed: int) -> Path:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{stamp}-{result['workload']}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    record = {"provenance": provenance(seed), "run_seconds": seconds, "trace": trace, **result}
    if result["rounds"]:
        record["provenance"]["versions"] = result["rounds"][0]["versions"]
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sharpwt" / "__init__.py").is_file():
        print(f"no sharpwt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # bytecode is compiled once here, so no round pays for it in setup_s
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = write_record(res, args.seconds, bool(args.trace), args.seed)
        for msg in res["check_failures"] + res["operation_failures"]:
            print(f"{name}: {msg}", file=sys.stderr)
        shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()
                         if not args.trace or k == "trace.overhead_s")
        print(f"{name}: {shown} attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']} rounds={len(res['rounds'])} wall_s={res['wall_s']:.1f} "
              f"steal_s={res['steal_s']} record={path.relative_to(ROOT)}")
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
