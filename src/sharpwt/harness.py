"""Experiment driver: extremal-family exponent fits against the A_p
characteristic, ratio scans for the lemma-level inequalities, seeded
corpora, and CSV/JSON emission.

Exponent protocol (frozen after the convergence study in docs/convergence.md):
on the grid [-1, 1), the weight is a power family |x|^a with exact cell
averages; the test function is the exact cell-average discretization of
|x|^(delta-1) on (0,1), the nonnegative half of the grid; its norm is
evaluated in closed form (the conjugate-pair integrand is |x|^(delta-1), so
||f||^p = 1/delta for every p), while the operator image, a step function,
gets the exact step-function norm.  The x-axis A_p uses the closed-form
dual-exponent averages of the power family.  A ladder point evaluates each
distinct closed form once, on the nonnegative half of the grid, and
mirrors it onto the negative half: f, the evaluation weight, the x-axis
weight and its dual read one table, and the dual reaches
`ap_characteristic` as its `sigma`.  Singular-integral runs at
p > 2 measure the norm growth through the conjugate exponent: the ratio is
evaluated in L^p'(w') for the p'-family, and the x-axis is the A_p
characteristic of w'^(1-p), which equals ||w'||_{A_p'}^(p-1) per window
exactly.  Ladders keep delta_min * s * ln 2 around 1 or above; deeper
points are resolution-starved and drag the fit below the asymptotic slope.
Operators come from OPERATOR_REGISTRY, which `apply` reads too; in a fit,
one that takes `mode` (G_alpha, G~) runs in "dictionary" mode, so a fit's
G~ is the 8-kernel dictionary's certified lower bound, not the supremum.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import subprocess
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from sharpwt.decomp import a_gamma, decompose
from sharpwt.gridfn import GridFunction, SortedBlocks, _dilate_averages_abs, cell_count, local_osc, median
from sharpwt.intrinsic import g_alpha, g_tilde, intrinsic_engines
from sharpwt.operators import (
    PSI,
    dyadic_square,
    g_psi,
    hilbert,
    hilbert_max,
    hilbert_on,
    maximal,
    psi_engine,
    s_psi,
)
from sharpwt.weights import (
    PowerWeightSpec,
    Weight,
    ainfty_fujii,
    ap_characteristic,
    power_cell_averages,
    power_weight,
    weighted_lp_norm,
)

# ---------------------------------------------------------------------------
# experiment specification and fit results
# ---------------------------------------------------------------------------


# the x-axis weight of a fit is the evaluation weight (buckley) or the
# p'-family's w'^(1-p) (dual-pair); see _extremal_pair
_WEIGHT_FAMILIES = ("buckley", "dual-pair")


@dataclass(frozen=True)
class ExperimentSpec:
    operator: str
    p: float
    deltas: tuple[float, ...]
    resolution_s: int
    weight_family: str = "buckley"

    def __post_init__(self):
        if self.operator not in OPERATOR_REGISTRY:
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.weight_family not in _WEIGHT_FAMILIES:
            raise ValueError(f"unknown weight family {self.weight_family!r}; known: {list(_WEIGHT_FAMILIES)}")
        if not 1 < self.p < math.inf:
            raise ValueError("p must be finite and > 1")
        if self.resolution_s < 0:
            # cells wider than (0, 1) leave f_delta no cell to live on
            raise ValueError("resolution_s must be >= 0")
        d = self.deltas
        if len(d) < 4:
            raise ValueError("need at least 4 ladder points for a slope fit")
        if not all(math.isfinite(x) for x in d):
            raise ValueError("ladder deltas must be finite")
        if any(b >= a for a, b in zip(d, d[1:])) or d[-1] <= 0:
            raise ValueError("delta ladder must be strictly decreasing and positive")


@dataclass
class FitPoint:
    delta: float
    ap_char: float
    ratio: float
    log_ap: float
    log_ratio: float
    first_cell_share: float
    flagged: bool


@dataclass
class FitResult:
    spec: ExperimentSpec
    slope: float
    intercept: float
    r2: float
    points: list[FitPoint]


def _git_describe() -> str:
    """git describe of the tree these sources sit in, not of the working directory."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _least_squares(xs, ys) -> tuple[float, float, float]:
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    a = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, ys, rcond=None)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# each op(f); galpha and gtilde also take `mode`, "lp" by default
OPERATOR_REGISTRY = {
    "maximal": maximal,
    "sd": dyadic_square,
    "hilbert": hilbert,
    "hilbert-max": hilbert_max,
    "gpsi": g_psi,
    "spsi": s_psi,
    "galpha": g_alpha,
    "gtilde": g_tilde,
}


class _PowerCells:
    """Exact cell averages of the power family |x|^a on the cells of one
    ladder point's grid [-1, 1), one closed form per distinct
    PowerWeightSpec, keyed by its exact exponent: an exponent one
    ulp off gets its own entry.  The grid is symmetric about the
    singularity and sign(u) |u|^(a+1) is odd, so each closed form runs on
    the edges of the nonnegative half, straight into the upper half of its
    whole-grid row, and the negative cells are its mirror image, copied in
    place, bit for bit.  A point has at most three closed forms (the
    evaluation weight, f's, which is also the dual-pair x-axis weight, and
    the x-axis dual), and their rows share one block, claimed in order of
    first use.  The table lives as long as its ladder point.

    The block is one allocation of 12 MB at the fits' 2^19 cells, not
    three of 4 MB: freed at the end of a point, it raises glibc's dynamic mmap threshold to 12 MB, so the
    operators' 2-6 MB temporaries come from the heap and are not mapped
    and faulted in afresh at every point.  A fresh process's round of the
    six frozen fits takes about 33k minor page faults against 83k with
    one array per closed form (CHANGES.md)."""

    def __init__(self, grid: GridFunction, edges: np.ndarray):
        self.grid = grid
        self.edges = edges
        self.mid = grid.ncells // 2  # the first cell of [0, 1)
        self.cells: dict[PowerWeightSpec, np.ndarray] = {}
        self.block = np.empty((3, grid.ncells))

    def full(self, spec: PowerWeightSpec) -> np.ndarray:
        """spec's cell averages on the whole grid."""
        cells = self.cells.get(spec)
        if cells is None:
            cells = self.cells[spec] = self.block[len(self.cells)]
            spec.cell_averages(self.edges[self.mid :], out=cells[self.mid :])
            _mirror(cells)
        return cells

    def weight(self, a: float) -> Weight:
        spec = PowerWeightSpec(a)
        return Weight(self.grid.with_values(self.full(spec)), power=spec)


def _mirror(cells: np.ndarray) -> None:
    """Writes the cells of the negative half of the grid as the mirror
    image of those of its nonnegative half."""
    mid = cells.size // 2
    cells[:mid] = cells[: mid - 1 : -1]


def _extremal_pair(spec: ExperimentSpec, grid: GridFunction, edges: np.ndarray, delta: float):
    """(f, eval weight, eval exponent, ap_args) for one ladder point on the
    run's grid, whose cell edges are `edges`.  ap_args() gives the keyword
    arguments of the x-axis A_p: the x-axis weight and the cell values of
    its dual.  They are built on call, so that they are not live while the
    operator runs.  All of them read one _PowerCells table."""
    p = spec.p
    dual = spec.weight_family == "dual-pair"
    p_eval = p / (p - 1.0) if dual else p
    cells = _PowerCells(grid, edges)
    w_eval = cells.weight((1 - delta) * (p_eval - 1))
    # f lives on (0, 1), the nonnegative half of the grid
    vals = np.zeros(grid.ncells)
    vals[cells.mid :] = cells.full(PowerWeightSpec(-1 + delta))[cells.mid :]
    f = grid.with_values(vals)

    def ap_args() -> dict:
        w_axis = w_eval if not dual else cells.weight(-(1 - delta))
        sigma = w_axis.power.dual(p)
        return {"w": w_axis, "sigma": None if sigma is None else cells.full(sigma)}

    return f, w_eval, p_eval, ap_args


def _operator_on(name: str, grid: GridFunction):
    """The registry operator for functions on `grid`'s cells.  The Hilbert
    transform's kernel depends only on the grid, so its spectrum is built
    here once for the whole run.  The fits' one rule: an operator that
    takes `mode` runs in "dictionary" mode."""
    op = hilbert_on(grid) if name == "hilbert" else OPERATOR_REGISTRY[name]
    if "mode" in inspect.signature(op).parameters:
        return functools.partial(op, mode="dictionary")
    return op


def exponent_experiment(spec: ExperimentSpec) -> FitResult:
    grid = GridFunction(1, spec.resolution_s, np.zeros(cell_count(1, spec.resolution_s)), origin=-1)
    edges = grid.cell_edges()
    op = _operator_on(spec.operator, grid)
    points = []
    for delta in spec.deltas:
        f, w_eval, p_eval, ap_args = _extremal_pair(spec, grid, edges, delta)
        den = (1.0 / delta) ** (1.0 / p_eval)  # closed form: integrand is |x|^(delta-1)
        ratio = weighted_lp_norm(op(f), w_eval, p_eval) / den
        ap = ap_characteristic(p=spec.p, **ap_args())
        # resolution diagnostic: share of the exact norm carried by (0, h)
        share = float(f.cell_width) ** delta
        points.append(FitPoint(delta, ap, ratio, math.log(ap), math.log(ratio), share, share > 0.10))
    slope, intercept, r2 = _least_squares([q.log_ap for q in points], [q.log_ratio for q in points])
    return FitResult(spec, slope, intercept, r2, points)


# acceptance runs frozen by the convergence study (see docs/convergence.md)
OCTAVE_LADDER = tuple(2.0**-k for k in range(1, 7))
HALF_OCTAVE_LADDER = tuple(2.0 ** (-(1 + k / 2)) for k in range(5))

ACCEPTANCE_RUNS = {
    "maximal-p2": (ExperimentSpec("maximal", 2.0, HALF_OCTAVE_LADDER, 18), 1.0, (0.80, 1.05)),
    "maximal-p4": (ExperimentSpec("maximal", 4.0, OCTAVE_LADDER, 14), 1.0 / 3.0, (0.23, 0.43)),
    "sd-p3": (ExperimentSpec("sd", 3.0, OCTAVE_LADDER, 14), 0.5, (0.35, 0.60)),
    "sd-p1.5": (ExperimentSpec("sd", 1.5, HALF_OCTAVE_LADDER, 18), 2.0, (1.60, 2.10)),
    "hilbert-p3": (ExperimentSpec("hilbert", 3.0, HALF_OCTAVE_LADDER, 18,
                                  weight_family="dual-pair"), 1.0, (0.80, 1.05)),
    "gtilde-p3": (ExperimentSpec("gtilde", 3.0, OCTAVE_LADDER, 11), 0.5, (0.30, 0.65)),
}


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def corpus_functions(seed: int = 0, resolution_s: int = 6,
                     n_random: int = 50) -> list[tuple[str, GridFunction]]:
    """Seeded random step functions plus the structured cases (indicators,
    Haar atoms, power bumps) on [0, 1)."""
    if resolution_s < 1:
        raise ValueError(f"the function corpus needs resolution_s >= 1 for its Haar atoms, not {resolution_s}")
    rng = np.random.default_rng(seed)
    n = cell_count(0, resolution_s)
    out = [(f"rand{i:02d}", GridFunction(0, resolution_s, rng.standard_normal(n)))
           for i in range(n_random)]
    probe = GridFunction(0, resolution_s, np.zeros(n))
    edges = probe.cell_edges()
    half = np.zeros(n); half[: n // 2] = 1.0
    block = np.zeros(n); block[n // 4 : 3 * n // 8] = 1.0
    haar = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    haar_q = np.zeros(n); haar_q[n // 2 : 5 * n // 8] = 1.0; haar_q[5 * n // 8 : 3 * n // 4] = -1.0
    spike = np.zeros(n); spike[0] = float(n)
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    ramp = np.linspace(-1.0, 1.0, n)
    out += [
        ("ind-half", probe.with_values(half)),
        ("ind-block", probe.with_values(block)),
        ("haar-root", probe.with_values(haar)),
        ("haar-q3", probe.with_values(haar_q)),
        ("pow-mid", probe.with_values(power_cell_averages(edges, -0.25, center=0.5))),
        ("pow-origin", probe.with_values(power_cell_averages(edges, -1.0 / 3.0))),
        ("spike", probe.with_values(spike)),
        ("const", probe.with_values(np.ones(n))),
        ("alt", probe.with_values(alt)),
        ("ramp", probe.with_values(ramp)),
    ]
    return out


def corpus_weights(seed: int = 0, resolution_s: int = 6, n: int = 100) -> list[tuple[str, Weight]]:
    """Lognormal random weights interleaved with power families."""
    rng = np.random.default_rng(seed)
    ncells = cell_count(0, resolution_s)
    probe = GridFunction(0, resolution_s, np.zeros(ncells))
    out = []
    power_exps = [-0.5, -1.0 / 3.0, 0.5, 1.0, 1.5]
    for i in range(n):
        if i % 5 == 4:
            a = power_exps[(i // 5) % len(power_exps)]
            out.append((f"power{a:+.2f}-{i:03d}", power_weight(resolution_s, a)))
        else:
            vals = np.exp(0.8 * rng.standard_normal(ncells))
            out.append((f"logn-{i:03d}", Weight(probe.with_values(vals))))
    return out


def refine(f: GridFunction) -> GridFunction:
    """The same step function represented at resolution s + 1."""
    return GridFunction(f.level_L, f.resolution_s + 1, np.repeat(f.values, 2), f.origin)


# ---------------------------------------------------------------------------
# ratio scans
# ---------------------------------------------------------------------------


@dataclass
class ScanCase:
    label: str
    ratio_base: float
    ratio_refined: float


@dataclass
class ScanReport:
    lemma: str
    seed: int
    resolution_s: int
    cases: list[ScanCase]
    max_base: float = field(init=False)
    max_refined: float = field(init=False)
    argmax: str = field(init=False)
    drift: float = field(init=False)
    exact_tolerance: float | None = None  # set for the exact (1e-12) lemmas
    passed: bool = field(init=False)

    def __post_init__(self):
        for c in self.cases:
            c.ratio_base = float(c.ratio_base)
            c.ratio_refined = float(c.ratio_refined)
        finite = [c for c in self.cases if math.isfinite(c.ratio_base) and math.isfinite(c.ratio_refined)]
        flagged = len(finite) != len(self.cases)
        self.max_base = max((c.ratio_base for c in finite), default=float("nan"))
        self.max_refined = max((c.ratio_refined for c in finite), default=float("nan"))
        self.argmax = max(finite, key=lambda c: c.ratio_base).label if finite else ""
        if self.exact_tolerance is not None:
            self.drift = 1.0
            self.passed = (not flagged) and self.max_base <= self.exact_tolerance \
                and self.max_refined <= self.exact_tolerance
        else:
            self.drift = (self.max_refined / self.max_base) if self.max_base > 0 else 1.0
            self.passed = (not flagged) and math.isfinite(self.max_base) and self.drift <= 1.5


def _ratio_max(num: np.ndarray, den: np.ndarray, floor: float) -> float:
    mask = den > floor
    if not mask.any():
        return 0.0
    return float(np.max(num[mask] / den[mask]))


@functools.lru_cache(maxsize=1)
def _corpus_engines(seed: int, s: int, n: int) -> tuple:
    """(label, ((f, engine), (refine(f), engine))) for every corpus function,
    with its lp engine at both resolutions.  One `intrinsic_engines` call
    builds them all in the order f0, refine(f0), f1, refine(f1), ..., so one
    vertex pool serves the corpus and each refined build meets the base
    build's nodes at pooled optima.  Consecutive scans of one corpus share
    these engines; the one entry is dropped when another corpus comes."""
    corpus = corpus_functions(seed, s, n_random=n)
    grids = [g for _, f in corpus for g in (f, refine(f))]
    built = list(zip(grids, intrinsic_engines(grids)))
    return tuple((label, tuple(built[2 * i : 2 * i + 2])) for i, (label, _) in enumerate(corpus))


def _engine_cases(seed: int, s: int, n: int, value) -> list[ScanCase]:
    """One case per corpus function: value(g, engine) at s and at s + 1."""
    return [ScanCase(label, *(value(g, eng) for g, eng in pair))
            for label, pair in _corpus_engines(seed, s, n)]


def _sandwich_left(g, eng):
    return float(np.max(eng.g_cone(1.0).values - eng.g_tilde().values))


def _sandwich_right(g, eng):
    return float(np.max(eng.g_tilde().values - eng.g_cone(4.0, closed=True).values))


def _cases_43(seed, s, n):
    fns = [f for _, f in corpus_functions(seed, s, n_random=n)]
    rng = np.random.default_rng(seed + 43)
    cases = []
    for trial in range(len(fns)):
        k = int(rng.integers(2, 5))
        picked = [fns[int(rng.integers(0, len(fns)))] for _ in range(k)]
        lev = int(rng.integers(0, 4))
        size = picked[0].ncells >> lev
        a = int(rng.integers(0, picked[0].ncells // size)) * size
        lam = Fraction(1, 8)
        vals = []
        for ref in (False, True):
            parts = [refine(g) if ref else g for g in picked]
            q = (a * 2, a * 2 + size * 2) if ref else (a, a + size)
            total = parts[0].with_values(np.sum([g.values for g in parts], axis=0))
            lhs = local_osc(total, q, lam)
            rhs = sum(local_osc(g, q, Fraction(lam, k)) for g in parts)
            vals.append(lhs - rhs)
        cases.append(ScanCase(f"trial{trial:02d}-k{k}", *vals))
    return cases


def _local_sharp_ratio(g, eng):
    """max over the dyadic cubes Q of levels 2-6 of
    osc_{1/8}(G~^2; Q) / (avg_{15Q} |g|)^2, with 15Q the cells
    [a - 7|Q|, a + 8|Q|) clipped to the grid and divided by its full width."""
    lam = Fraction(1, 8)
    table = SortedBlocks(g.with_values(eng.g_tilde().values ** 2))
    worst = 0.0
    for lev in range(2, 7):
        size = g.ncells >> lev
        if size < 1:
            continue
        avg = _dilate_averages_abs(g, np.arange(0, g.ncells, size), size, 15)
        keep = avg > 1e-9
        # scalar `v ** 2` is libm pow, which can differ in the last bit from
        # the array square v * v; the scan's value is defined by the scalar
        osc = table.osc(size, lam)[keep].tolist()
        worst = max([worst] + [o / v**2 for o, v in zip(osc, avg[keep].tolist())])
    return worst


def _cases_53(seed, s, n):
    fs = corpus_functions(seed, s, n_random=n)
    ws = corpus_weights(seed, s, n=len(fs))
    cases = []
    for (label, f), (wlabel, w) in zip(fs, ws):
        vals = []
        for g, wt in ((f, w), (refine(f), Weight(refine(w.base)))):
            d = decompose(g)
            ag = a_gamma(g, d)
            h = float(g.cell_width)
            lhs = (np.sum(ag.values ** 1.5 * wt.values) * h) ** (2.0 / 3.0)
            denom = ap_characteristic(wt, 3.0) * weighted_lp_norm(g, wt, 3.0) ** 2
            vals.append(lhs / denom if denom > 0 else 0.0)
        cases.append(ScanCase(f"{label}|{wlabel}", *vals))
    return cases


def _median_ratio(g, eng):
    gt2 = eng.g_tilde().values ** 2
    gt2f = g.with_values(gt2)
    d = decompose(gt2f)
    rhs = maximal(g).values ** 2 + a_gamma(g, d).values + 1e-9
    lhs = np.abs(gt2 - median(gt2f))
    return float(np.max(lhs / rhs))


def _weak_type(g, eng):
    galpha = eng.g_cone(1.0).values
    h = float(g.cell_width)
    l1 = float(np.sum(np.abs(g.values)) * h)
    gmax = float(np.max(galpha))
    if gmax <= 0 or l1 <= 0:
        return 0.0
    lams = gmax * np.power(1e-3, np.linspace(0, 1, 20))
    meas = np.array([float(np.sum(galpha > lam)) * h for lam in lams])
    return float(np.max(lams * meas / l1))


def _aperture(g, eng):
    return _ratio_max(eng.g_cone(4.0).values, eng.g_cone(1.0).values, 1e-6)


def _cases_23(seed, s, n):
    rho = PSI.holder_seminorm()

    def value(g, eng):
        spsi = psi_engine(g).g_cone(1.0).values
        return _ratio_max(spsi / rho, eng.g_cone(1.0).values, 1e-6)

    return _engine_cases(seed, s, n, value)


def _cases_513(seed, s, n):
    return [ScanCase(label, *(ainfty_fujii(wt) / ap_characteristic(wt, 2.0)
                              for wt in (w, Weight(refine(w.base)))))
            for label, w in corpus_weights(seed, s, n=n)]


def _cases_55(seed, s, n):
    cases = []
    for label, pair in _corpus_engines(seed, s, n):
        psi = [psi_engine(hilbert(g)) for g, _ in pair]
        for beta in (1.0, 3.0):
            cases.append(ScanCase(f"{label}|beta{beta:g}", *(
                _ratio_max(p.g_cone(beta).values, eng.g_cone(1.0).values, 1e-6)
                for p, (_, eng) in zip(psi, pair))))
    return cases


SCANS = {
    # lemma id -> (s_base, n_random, exact tolerance or None, cases(seed, s, n))
    "5.1-left": (6, 20, 1e-12, functools.partial(_engine_cases, value=_sandwich_left)),
    "5.1-right": (6, 20, 1e-12, functools.partial(_engine_cases, value=_sandwich_right)),
    "4.3": (6, 50, 1e-12, _cases_43),
    "5.2": (6, 12, None, functools.partial(_engine_cases, value=_local_sharp_ratio)),
    "5.3": (7, 30, None, _cases_53),
    "5.9": (6, 20, None, functools.partial(_engine_cases, value=_median_ratio)),
    "2.1": (6, 20, None, functools.partial(_engine_cases, value=_weak_type)),
    "2.2": (6, 20, None, functools.partial(_engine_cases, value=_aperture)),
    "2.3": (6, 12, None, _cases_23),
    "5.13": (7, 100, None, _cases_513),
    "5.5-dom": (6, 10, None, _cases_55),
}


def ratio_scan(lemma: str, seed: int = 0, n_random: int | None = None) -> ScanReport:
    """The lemma's scan at its own base resolution."""
    if lemma not in SCANS:
        raise ValueError(f"unknown lemma id {lemma!r}; known: {sorted(SCANS)}")
    s, n_def, tol, cases = SCANS[lemma]
    n = n_def if n_random is None else n_random
    if n < 0:
        raise ValueError(f"n_random must be >= 0, got {n}")
    return ScanReport(lemma, seed, s, cases(seed, s, n), exact_tolerance=tol)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _write_report(path: str, report) -> str:
    """Write `report` to path: a dict as JSON (indent 2, sorted keys), any
    other iterable as lines of text, one at a time; each ends in a newline.
    An OSError names the path."""
    lines = [json.dumps(report, indent=2, sort_keys=True)] if isinstance(report, dict) else report
    try:
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path


def emit(result, path: str) -> str:
    """Write a FitResult or ScanReport: a JSON document with the full report
    when path ends in .json, else CSV rows plus a '#'-prefixed footer."""
    if path.endswith(".json"):
        return _write_report(path, {**asdict(result), "git_describe": _git_describe()})
    if isinstance(result, FitResult):
        lines = ["delta,ap_char,ratio,log_ap,log_ratio"]
        for q in result.points:
            lines.append(f"{q.delta!r},{q.ap_char!r},{q.ratio!r},{q.log_ap!r},{q.log_ratio!r}")
        lines.append(f"# slope={result.slope!r} intercept={result.intercept!r} r2={result.r2!r}")
        s = result.spec
        lines.append(f"# spec: op={s.operator} p={s.p!r} s={s.resolution_s} L=1 "
                     f"family={s.weight_family}")
        flagged = [q.delta for q in result.points if q.flagged]
        if flagged:
            lines.append(f"# flagged (first-cell share > 10%): {flagged!r}")
    else:
        lines = ["case,ratio_base,ratio_refined"]
        for c in result.cases:
            lines.append(f"{c.label},{c.ratio_base!r},{c.ratio_refined!r}")
        lines.append(f"# lemma={result.lemma} max={result.max_base!r} drift={result.drift!r} "
                     f"argmax={result.argmax} passed={result.passed}")
    return _write_report(path, lines)
