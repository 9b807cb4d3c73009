"""The fast-path ledger: what each fast path of sharpwt earns on the benchmark's workloads.

    python3 scripts/ablate.py

Each row of ROWS names one fast path and one exact source edit, `old` ->
`new` in one file of src/sharpwt/, that switches it off and leaves every
result as it was.  src/ and perfbench/workload.py are copied into a
temporary directory once as they are, the baseline, and once per row with
the row's edit; a row whose `old` does not occur exactly once in its file
is reported as stale and not run.  Then, for ROUNDS rounds, on every
BENCHMARK.json workload, one fresh process per side (the baseline first in
even rounds, the row first in odd ones) makes the workload's inputs from
seed round + 1 with the copied perfbench/workload.py, runs its timed body
once with OPENBLAS_NUM_THREADS=1, and reports the body's process CPU and
a digest of every output: the body's return value and the files it
emits.
A row is bit-identical when each of its digests equals the baseline's of
the same round.

Prints one JSON document.  Per row and workload it holds the summary of
scripts/bench_pairs.py, in ms of CPU, with the row's edit as the parent
(the fast path off) and the baseline as the change (the fast path on),
the extra CPU of the median with the path off, and `pays`: the baseline
was faster in at least PAYS_FROM of the ROUNDS pairs and its median gap
exceeds the interquartile range of both sides.  A row that pays on no
workload is listed under `retirement_candidates`.  Exits 1 when a row is
stale or changes an output.  A full run takes about 9 minutes on a 2-vCPU
machine.  It is not part of Tier-1, like `perfbench`; tests/test_ledger.py
checks in Tier-1 that every row still applies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import summarise

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10  # as bench_pairs.PAIRS
PAYS_FROM = 9

# (name, file under src/sharpwt/, old, new): `new` switches the fast path off
ROWS = (
    ("node classes", "intrinsic.py",
     "        if idx.size * q >= _CLASS_FROM:\n",
     "        if False:\n"),
    ("node skip", "intrinsic.py",
     "    kept = np.flatnonzero(count[b] > count[a])\n",
     "    kept = np.arange(a.size)\n"),
    ("A_p re-bound", "weights.py",
     "rebound=size // 8 >= _REBOUND_FROM",
     "rebound=False"),
    ("A_p top-block seed", "weights.py",
     "            top = int(np.argmax(bound))\n"
     "            m = window_max(ln, top * size, min((top + 1) * size, n - ln + 1))\n"
     "            bound[top] = -np.inf  # its windows are in m\n",
     "            m = -np.inf\n"),
    ("maximal chunk loop", "operators.py",
     "        step = _MAX_CHUNK if n > 2 * _MAX_CHUNK and w <= _MAX_CHUNK else n\n",
     "        step = n\n"),
    ("maximal support range", "operators.py",
     "[(max(a - w + 1, 0), min(b + w - 1, n))]",
     "[(0, n)]"),
    ("maximal bounded runs", "operators.py",
     "    bounded = n > 2 * _MAX_CHUNK\n",
     "    bounded = False\n"),
    ("maximal w >= n/2 running max", "operators.py",
     "        if m <= w + 1:\n",
     "        if False:\n"),
    ("maximal 9-in-10 guard", "operators.py",
     "    if 10 * np.count_nonzero(keep) > 9 * keep.size:\n",
     "    if False:\n"),
    ("dyadic_square pair level", "operators.py",
     "        elif size == 2:\n",
     "        elif False:\n"),
    ("closed-form mirror", "harness.py",
     "            spec.cell_averages(self.edges[self.mid :], out=cells[self.mid :])\n"
     "            _mirror(cells)\n",
     "            spec.cell_averages(self.edges, out=cells)\n"),
    ("closed-form block", "harness.py",
     "cells = self.cells[spec] = self.block[len(self.cells)]",
     "cells = self.cells[spec] = np.empty(self.grid.ncells)"),
    ("sigma pass-through", "harness.py",
     'return {"w": w_axis, "sigma": None if sigma is None else cells.full(sigma)}',
     'return {"w": w_axis}'),
    ("child medians on demand", "decomp.py",
     "                next_parents.append((a, b))\n",
     "                next_parents.append((a, b))\n"
     "                median_of(a, b - a)\n"),
    ("child walk on Python ints", "decomp.py",
     "prefix_sums(mask, np.intp).tolist()",
     "prefix_sums(mask, np.intp)"),
)


def _feed(h, obj) -> None:
    """Every bit of `obj` into the hash `h`: arrays by their bytes, floats
    by their hex form (the sign of a zero included), objects by their
    public attributes, so that caches built on first use do not count."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for value in obj:
            _feed(h, value)
        h.update(b"]")
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        _feed(h, {k: v for k, v in vars(obj).items() if not k.startswith("_")})
    else:
        h.update(repr(obj).encode())
    h.update(b";")


def child(name: str, seed: int, work: Path) -> None:
    """One process in a copied tree: one round of one workload, printed as
    one JSON line."""
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    import workload  # the copy, which puts the copy's src/ first on sys.path

    import sharpwt

    make_inputs, body, _check = workload.WORKLOADS[name]
    inp = make_inputs(seed)
    rnd = workload.Round()
    start = time.process_time()
    outputs = body(inp, rnd, work)
    cpu_ms = (time.process_time() - start) * 1e3
    if rnd.failures:
        raise RuntimeError("\n".join(rnd.failures))
    h = hashlib.sha256()
    _feed(h, outputs)
    for path in sorted(work.iterdir()):
        _feed(h, (path.name, path.read_bytes()))
    print(json.dumps({"src": str(Path(sharpwt.__file__).parent), "cpu_ms": cpu_ms, "digest": h.hexdigest()}))


def run_side(tree: Path, name: str, seed: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, __file__, "--child", name, str(seed), str(work)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {name} seed {seed} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if Path(out["src"]) != tree / "src" / "sharpwt":
        raise RuntimeError(f"{tree.name} imported sharpwt from {out['src']}")
    return out


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (dest / "perfbench").mkdir()
    shutil.copy2(ROOT / "perfbench" / "workload.py", dest / "perfbench")


def ablate(row: tuple, workloads: list[str], base: Path, off: Path, work: Path) -> dict:
    """One row against the baseline copy `base`, its edit applied to a
    fresh copy at `off`."""
    name, file, old, new = row
    text = (base / "src" / "sharpwt" / file).read_text()
    count = text.count(old)
    if count != 1:
        return {"row": name, "file": file, "stale": True, "matches": count}
    shutil.rmtree(off, ignore_errors=True)
    copy_tree(off)
    (off / "src" / "sharpwt" / file).write_text(text.replace(old, new))
    result = {"row": name, "file": file, "stale": False, "identical": True, "pays_on": [], "workloads": {}}
    for wl in workloads:
        pairs = []
        for r in range(ROUNDS):
            sides = {}
            for side in (("change", "parent") if r % 2 == 0 else ("parent", "change")):
                sides[side] = run_side(base if side == "change" else off, wl, r + 1, work)
            pairs.append(sides)
        summary = summarise(pairs, {"name": "cpu_ms", "better": "lower"})
        iqr = max(hi - lo for lo, hi in (summary["parent_quartiles"], summary["change_quartiles"]))
        gap = summary["parent_median"] - summary["change_median"]
        same = all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs)
        pays = summary["change_better_pairs"] >= PAYS_FROM and gap > iqr
        result["identical"] &= same
        if pays:
            result["pays_on"].append(wl)
        result["workloads"][wl] = {"extra_ms": round(gap, 1), "pays": pays, "identical": same,
                                   "summary": summary}
        print(f"{name} / {wl}: extra {gap:+.1f} ms, IQR {iqr:.1f} ms, baseline faster in "
              f"{summary['change_better_pairs']} of {ROUNDS}", file=sys.stderr, flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]), Path(args.child[2]))
        return 0
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="ablate-") as tmp:
        base, off = Path(tmp) / "base", Path(tmp) / "off_"  # paths of equal length
        copy_tree(base)
        results = [ablate(row, workloads, base, off, Path(tmp) / "work") for row in ROWS]
    doc = {
        "git_describe": describe,
        "rounds": ROUNDS,
        "method": "per workload, ROUNDS alternating pairs of fresh processes, one body each, seeds 1..ROUNDS; "
                  "summaries in ms of process CPU from scripts/bench_pairs.py, with parent = the row's edit "
                  "(fast path off) and change = the baseline (fast path on); quartiles are inclusive",
        "retirement_candidates": [r["row"] for r in results if not r["stale"] and not r["pays_on"]],
        "rows": results,
    }
    print(json.dumps(doc, indent=2))
    return 0 if all(not r["stale"] and r["identical"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
