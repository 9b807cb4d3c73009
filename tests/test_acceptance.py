"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The ratio-scan and exponent-fit reports are written as
CSV to a fresh pytest temporary directory per session, or to
SHARPWT_REPORT_DIR when it is set; a test run never writes into the source
tree otherwise.  acceptance.log, in the same directory, holds one JSON
object per criterion line: criterion, passed, elapsed_s, each value of the
line as its own field, the seed and resolution where the criterion has
them, and the git describe, Python and numpy versions of the run.
"""

import json
import math
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import lattice_sup_q5

from sharpwt.decomp import decompose, verify_decomposition
from sharpwt.dyadic import DyadicCube, companion, dilate, family_index
from sharpwt.gridfn import GridFunction, local_osc, median, rearrangement_value
from sharpwt.harness import (
    ACCEPTANCE_RUNS,
    SCANS,
    _corpus_engines,
    _git_describe,
    corpus_functions,
    emit,
    exponent_experiment,
    ratio_scan,
)
from sharpwt.intrinsic import _holder_class, _VertexPool, hat_coefficients, intrinsic_engines


@pytest.fixture(scope="session")
def report_dir(tmp_path_factory) -> Path:
    """SHARPWT_REPORT_DIR if set, else a temporary directory; its
    acceptance.log starts empty in every session."""
    env = os.environ.get("SHARPWT_REPORT_DIR")
    path = Path(env) if env else tmp_path_factory.mktemp("reports")
    path.mkdir(parents=True, exist_ok=True)
    (path / "acceptance.log").write_text("")
    return path


SRC = Path(__file__).resolve().parent.parent / "src"


def _detail(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _json_value(value):
    # strict JSON has no inf or nan
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


@pytest.fixture(scope="session")
def report(report_dir):
    provenance = {
        "git_describe": _git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    def write(criterion: str, passed: bool, elapsed_s: float, **fields) -> None:
        """Print the PASS/FAIL line and append the criterion's JSON record;
        `seed` and `resolution_s` go in `fields` where the criterion has them."""
        detail = " ".join(f"{key}={_detail(value)}" for key, value in fields.items())
        print(f"[{'PASS' if passed else 'FAIL'}] {criterion}  {detail} time={elapsed_s:.1f}s")
        record = {"criterion": criterion, "passed": bool(passed), "elapsed_s": elapsed_s}
        record.update({key: _json_value(value) for key, value in fields.items()})
        record.update(provenance)
        with open(report_dir / "acceptance.log", "a") as fh:
            fh.write(json.dumps(record, allow_nan=False) + "\n")

    return write


# ---------------------------------------------------------------------------
# 1. dyadic geometry, exhaustively, in under 10 seconds
# ---------------------------------------------------------------------------


def test_criterion_1_dyadic_geometry(report):
    t0 = time.monotonic()
    violations = 0

    cubes = []
    for k in range(-6, 7):
        side = Fraction(2) ** -k
        j_lo = int(np.floor(-8 / float(side)))
        j_hi = int(np.ceil(8 / float(side)))
        cubes += [DyadicCube(k, (j,)) for j in range(j_lo, j_hi)
                  if (j + 1) * side > -8 and j * side < 8]
    groups = {0: [], 1: [], 2: []}
    for c in cubes:
        side = c.side
        groups[family_index(c)].append(((c.index[0] - 1) * side, (c.index[0] + 2) * side))
    for triples in groups.values():
        arr = np.array([(float(a), float(b)) for a, b in triples])
        lo, hi = arr[:, 0], arr[:, 1]
        disj = (hi[:, None] <= lo[None, :]) | (hi[None, :] <= lo[:, None])
        nest = ((lo[:, None] >= lo[None, :]) & (hi[:, None] <= hi[None, :])) | (
            (lo[None, :] >= lo[:, None]) & (hi[None, :] <= hi[:, None]))
        violations += int(np.sum(~(disj | nest)))

    for c in cubes:
        side = c.side
        j = c.index[0]
        for fam in range(3):
            comp = companion(c, fam)
            if family_index(comp) != fam or comp.level != c.level:
                violations += 1
                continue
            t_lo, t_hi = (comp.index[0] - 1) * side, (comp.index[0] + 2) * side
            if not (t_lo <= j * side and (j + 1) * side <= t_hi):
                violations += 1
            if not ((j - 2) * side <= t_lo and t_hi <= (j + 3) * side):
                violations += 1

    # n = 2 spot check via the product rule
    cubes2 = []
    for k in range(-3, 4):
        side = Fraction(2) ** -k
        j_lo = int(np.floor(-2 / float(side)))
        j_hi = int(np.ceil(2 / float(side)))
        rng = [j for j in range(j_lo, j_hi) if (j + 1) * side > -2 and j * side < 2]
        cubes2 += [DyadicCube(k, (j1, j2)) for j1 in rng for j2 in rng]
    groups2: dict[int, list] = {}
    for c in cubes2:
        groups2.setdefault(family_index(c), []).append(c)
    for fam, cs in groups2.items():
        boxes = [dilate(c, 3) for c in cs]
        lo = np.array([[float(v) for v in b.lower()] for b in boxes])
        hi = np.array([[float(v) for v in b.upper()] for b in boxes])
        disj = ((hi[:, None, 0] <= lo[None, :, 0]) | (hi[None, :, 0] <= lo[:, None, 0])
                | (hi[:, None, 1] <= lo[None, :, 1]) | (hi[None, :, 1] <= lo[:, None, 1]))
        a_in_b = ((lo[:, None] >= lo[None, :]) & (hi[:, None] <= hi[None, :])).all(axis=2)
        violations += int(np.sum(~(disj | a_in_b | a_in_b.T)))
    for c in cubes2[::7]:
        me, five = dilate(c, 1), dilate(c, 5)
        for fam in range(9):
            comp = companion(c, fam)
            tri = dilate(comp, 3)
            if not (tri.contains(me) and five.contains(tri) and family_index(comp) == fam):
                violations += 1

    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    report("criterion 1 (Wilson families + companions)", ok, elapsed, violations=violations)
    assert ok


# ---------------------------------------------------------------------------
# 2. decomposition on 1000 seeded random functions, s = 10
# ---------------------------------------------------------------------------


def test_criterion_2_decomposition_corpus(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(20211)
    worst_slack, fails, cubes, max_generations = -np.inf, 0, 0, 0
    for trial in range(1000):
        f = GridFunction(0, 10, rng.standard_normal(1024))
        d = decompose(f)
        rep = verify_decomposition(f, d)
        worst_slack = max(worst_slack, rep["i_pointwise"]["worst_slack"])
        cubes += rep["n_cubes"]
        max_generations = max(max_generations, rep["n_generations"])
        if not rep["passed"]:
            fails += 1
    elapsed = time.monotonic() - t0
    ok = fails == 0 and elapsed < 300.0
    report("criterion 2 (Theorem-4.1 decomposition, 1000 fns)", ok, elapsed,
           fails=fails, worst_i_slack=float(worst_slack), cubes=cubes, max_generations=max_generations,
           seed=20211, resolution_s=10)
    assert ok


# ---------------------------------------------------------------------------
# 3. oscillation calculus oracles, 1000 cases
# ---------------------------------------------------------------------------


def test_criterion_3_oscillation_oracles(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    lam = Fraction(1, 8)
    n = 64
    worst_osc = 0.0
    bad = {"median": 0, "rearr": 0, "lemma43": 0, "ineq41": 0}
    for case in range(1000):
        f = GridFunction(0, 6, rng.standard_normal(n))
        # two-pointer omega vs brute force over candidate centers
        vals = np.sort(f.values)
        cands = np.unique(np.concatenate([(vals[:, None] + vals[None, :]).ravel() / 2.0, vals]))
        allowed = int(lam * n)
        dev = np.sort(np.abs(f.values[None, :] - cands[:, None]), axis=1)[:, ::-1]
        brute = float(np.min(dev[:, allowed]))
        worst_osc = max(worst_osc, abs(local_osc(f, None, lam) - brute))

        # median vs exhaustive scan for the min-|m| valid value
        m = median(f)
        valid = [v for v in vals
                 if np.sum(f.values > v) * 2 <= n and np.sum(f.values < v) * 2 <= n]
        if m != min(valid, key=lambda v: (abs(v), v)):
            bad["median"] += 1

        # rearrangement inf property
        t = float(rng.uniform(1 / n, 1.0))
        r = rearrangement_value(f, None, t)
        if np.sum(np.abs(f.values) > r) / n > t:
            bad["rearr"] += 1
        if r > 0 and np.sum(np.abs(f.values) > r - 1e-9 * (1 + r)) / n <= t:
            bad["rearr"] += 1

        # inequality (4.1)
        lev = int(rng.integers(0, 5))
        size = n >> lev
        a = int(rng.integers(0, n // size)) * size
        if abs(median(f, (a, a + size))) > rearrangement_value(f, (a, a + size), size / n / 2):
            bad["ineq41"] += 1

        # Lemma 4.3 on every 4th case
        if case % 4 == 0:
            k = int(rng.integers(2, 5))
            fs = [GridFunction(0, 6, rng.standard_normal(n)) for _ in range(k)]
            tot = fs[0].with_values(np.sum([g.values for g in fs], axis=0))
            lhs = local_osc(tot, (a, a + size), lam)
            rhs = sum(local_osc(g, (a, a + size), Fraction(lam, k)) for g in fs)
            if lhs > rhs + 1e-12:
                bad["lemma43"] += 1

    ok = worst_osc <= 1e-12 and all(v == 0 for v in bad.values())
    report("criterion 3 (oscillation calculus oracles, 1000 cases)", ok, time.monotonic() - t0,
           worst_osc_diff=worst_osc, **{f"failures_{key}": v for key, v in bad.items()},
           seed=303, resolution_s=6)
    assert ok


# ---------------------------------------------------------------------------
# 4. discrete Lemma 5.1 sandwich at s = 8, LP mode, q = 17
# ---------------------------------------------------------------------------


def test_criterion_4_sandwich(report):
    t0 = time.monotonic()
    worst_left, worst_right = -np.inf, -np.inf
    engines = intrinsic_engines([f for _, f in corpus_functions(seed=51, resolution_s=8, n_random=40)],
                                alpha=0.5, q=17, mode="lp")
    for eng in engines:
        g1 = eng.g_cone(1.0).values
        gt = eng.g_tilde().values
        g4 = eng.g_cone(4.0, closed=True).values
        worst_left = max(worst_left, float(np.max(g1 - gt)))
        worst_right = max(worst_right, float(np.max(gt - g4)))
    ok = worst_left <= 1e-12 and worst_right <= 1e-12
    # every node value lies within its certified interval; the builds raise
    # on any interval wider than _WIDTH_TOL * max|c|
    widest = max(eng.widest_interval for eng in engines)
    report("criterion 4 (Lemma 5.1 sandwich, 50 fns, s=8)", ok, time.monotonic() - t0,
           left=worst_left, right=worst_right, widest_interval=widest, engine_builds=len(engines),
           quadrature_nodes=sum(eng.node_vals.size for eng in engines), seed=51, resolution_s=8)
    assert ok


# ---------------------------------------------------------------------------
# 5. LP evaluator vs lattice oracle (q = 5); dictionary below LP
# ---------------------------------------------------------------------------


def test_criterion_5_lp_oracles(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    cls5 = _holder_class(0.5, 5)
    cls17 = _holder_class(0.5, 17)
    worst5, ncases = 0.0, 0
    lp_solves = 0  # objectives with a nonzero interior coefficient: the rows the simplex solves
    for _ in range(24):
        vals = np.zeros(64)
        vals[int(rng.integers(0, 64))] = 1.0
        f = GridFunction(0, 6, vals)
        c = hat_coefficients(f, float(rng.uniform(0, 1)), float(rng.uniform(0.05, 0.6)), 5)
        tol = 1e-3 * float(np.sum(np.abs(c)))
        if tol == 0:
            continue
        ncases += 1
        lp_solves += bool(c[1:-1].any())
        worst5 = max(worst5, abs(cls5.lp_sup(c) - lattice_sup_q5(c, 0.5)) - tol)
    worst_dict, widest = -np.inf, 0.0
    for _, f in corpus_functions(seed=56, resolution_s=6, n_random=10):
        for _ in range(10):
            y = float(rng.uniform(-0.2, 1.2))
            t = float(rng.uniform(0.02, 1.0))
            c = hat_coefficients(f, y, t, 17)
            # one pool per value, as lp_sup builds it, so that its certified
            # interval can be read; the pool raises on one too wide
            pool = _VertexPool(cls17)
            lp = float(pool.sup_rows(c[None, :])[0])
            lp_solves += bool(c[1:-1].any())
            widest = max(widest, pool.widest)
            worst_dict = max(worst_dict, cls17.dict_sup(c) - lp)
    ok = worst5 <= 0 and ncases >= 10 and worst_dict <= 1e-9
    report("criterion 5 (LP vs lattice oracle; dictionary <= LP)", ok, time.monotonic() - t0,
           lattice_excess=worst5, lattice_cases=ncases, dict_minus_lp=worst_dict,
           widest_interval=widest, lp_solves=lp_solves, seed=55, corpus_seed=56, resolution_s=6)
    assert ok


# ---------------------------------------------------------------------------
# 6. every ratio scan of SCANS: the exact ones within 1e-12, the others
#    bounded with drift <= 1.5 under s -> s+1; each archived as CSV
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lemma", SCANS)
def test_criterion_6_ratio_scan(lemma, report, report_dir):
    t0 = time.monotonic()
    rep = ratio_scan(lemma, seed=6, n_random=50)
    path = report_dir / f"scan-{lemma.replace('.', '_')}.csv"
    emit(rep, str(path))
    ok = rep.passed and np.isfinite(rep.max_base)
    # 5.13's drift read 0.805 while the refined power weights were hybrids
    ok = ok and (lemma != "5.13" or abs(rep.drift - 1.0) <= 0.01)
    report(f"criterion 6 (ratio scan {lemma})", ok, time.monotonic() - t0,
           max=rep.max_base, drift=rep.drift, argmax=rep.argmax, path=str(path),
           seed=rep.seed, resolution_s=rep.resolution_s)
    assert ok


# ---------------------------------------------------------------------------
# 7. exponent reproduction, frozen windows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_RUNS))
def test_criterion_7_exponent(name, report, report_dir):
    spec, target, (lo, hi) = ACCEPTANCE_RUNS[name]
    t0 = time.monotonic()
    result = exponent_experiment(spec)
    elapsed = time.monotonic() - t0
    emit(result, str(report_dir / f"exponent-{name}.csv"))
    ok = lo <= result.slope <= hi and elapsed < 600.0
    # fitted slopes are estimates, not lower bounds: the grid's f_delta has a
    # larger L^p(w) norm than the closed form the ratio divides by (2.306
    # times at delta = 2^-4 on the hilbert p = 2, s = 12 pair), so a ratio
    # can exceed the discrete operator norm (docs/convergence.md); the
    # ceiling bounds the estimate
    ok = ok and result.slope <= target + 0.1
    report(f"criterion 7 (exponent {name})", ok, elapsed,
           slope=result.slope, target=target, window_lo=lo, window_hi=hi, r2=result.r2,
           resolution_s=spec.resolution_s)
    assert ok


# ---------------------------------------------------------------------------
# 8. determinism: repeated runs byte-identical
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, report):
    t0 = time.monotonic()
    spec = ACCEPTANCE_RUNS["sd-p3"][0]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(exponent_experiment(spec), str(a))
    emit(exponent_experiment(spec), str(b))
    same_fit = a.read_bytes() == b.read_bytes()

    r1 = ratio_scan("2.2", seed=8, n_random=10)
    _corpus_engines.cache_clear()  # the second run builds its own engines
    r2 = ratio_scan("2.2", seed=8, n_random=10)
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    emit(r1, str(c))
    emit(r2, str(d))
    same_scan = c.read_bytes() == d.read_bytes()
    ok = same_fit and same_scan
    report("criterion 8 (determinism)", ok, time.monotonic() - t0,
           fit=same_fit, scan=same_scan, seed=8, resolution_s=r1.resolution_s)
    assert ok


FRESH_RUN = """
import sys
from sharpwt.harness import ACCEPTANCE_RUNS, emit, exponent_experiment, ratio_scan
emit(exponent_experiment(ACCEPTANCE_RUNS["sd-p3"][0]), sys.argv[1])
emit(ratio_scan("2.2", seed=8, n_random=10), sys.argv[2])
"""


def test_criterion_8_fresh_interpreter(tmp_path, report):
    """Criterion 8's fit and scan in a new interpreter with PYTHONPATH=src
    give the bytes of the same run in this process, whatever the process
    has computed before."""
    t0 = time.monotonic()
    emit(exponent_experiment(ACCEPTANCE_RUNS["sd-p3"][0]), str(tmp_path / "fit.csv"))
    rep = ratio_scan("2.2", seed=8, n_random=10)
    emit(rep, str(tmp_path / "scan.csv"))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(tmp_path / "fresh-fit.csv"), str(tmp_path / "fresh-scan.csv")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=600,
    )
    ran = proc.returncode == 0
    same_fit = ran and (tmp_path / "fit.csv").read_bytes() == (tmp_path / "fresh-fit.csv").read_bytes()
    same_scan = ran and (tmp_path / "scan.csv").read_bytes() == (tmp_path / "fresh-scan.csv").read_bytes()
    ok = same_fit and same_scan
    report("criterion 8 (determinism, fresh interpreter)", ok, time.monotonic() - t0,
           exit_status=proc.returncode, fit=same_fit, scan=same_scan,
           seed=8, resolution_s=rep.resolution_s)
    assert ok, proc.stderr[-2000:]
