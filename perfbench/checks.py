"""Independent checks of the benchmark workloads' outputs.

Every checker either recomputes a quantity by a method of its own (an LP
built here from the class definition, lattice enumeration, midpoint
integration over merged breakpoints, direct window sums, cell-coverage
arrays) or tests a property the method must have (martingale isometry,
M f >= |f|, A_p >= 1).  None compares against a stored copy of earlier
output.  Each checker returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import linprog

ALPHA = 0.5
LP_TOL = 1e-9
LATTICE_STEP = 2e-3


# ---------------------------------------------------------------------------
# the discretized Hölder class
# ---------------------------------------------------------------------------


def holder_class_lp(c, alpha: float = ALPHA) -> float:
    """max |c . phi| over the class, written from its definition: phi on q
    uniform nodes of [-1, 1], zero at both ends, |phi_i - phi_j| <=
    |u_i - u_j|^alpha for every pair, exact trapezoid mean zero.

    The pinned ends are eliminated (interior trapezoid weights are all
    equal, so the mean-zero row is sum(interior) = 0), and both signs of
    the objective are solved rather than assuming the symmetry.
    """
    c = np.asarray(c, dtype=float)
    q = c.size
    u = np.linspace(-1.0, 1.0, q)
    m = q - 2
    rows, rhs = [], []
    for i in range(q):
        for j in range(i + 1, q):
            row = np.zeros(m)
            if 0 < i < q - 1:
                row[i - 1] += 1.0
            if 0 < j < q - 1:
                row[j - 1] -= 1.0
            if not row.any():  # both ends pinned
                continue
            bound = (u[j] - u[i]) ** alpha
            rows += [row, -row]
            rhs += [bound, bound]
    inner = c[1:-1]
    scale = float(np.max(np.abs(inner)))
    if scale == 0.0:
        return 0.0
    best = 0.0
    for sign in (1.0, -1.0):
        res = linprog(-sign * inner / scale, A_ub=np.array(rows), b_ub=np.array(rhs),
                      A_eq=np.ones((1, m)), b_eq=[0.0], bounds=[(None, None)] * m,
                      method="highs-ds")
        if res.status != 0:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        best = max(best, -res.fun * scale)
    return best


def lattice_sup_q5(c, alpha: float = ALPHA, step: float = LATTICE_STEP) -> float:
    """Brute-force maximum of |c . phi| over the q = 5 class restricted to a
    lattice of step `step` in the two free interior values."""
    u = np.linspace(-1.0, 1.0, 5)
    # |phi_1| <= 0.5^alpha against the pinned left end; |phi_2| <= 1
    ga = np.arange(-(0.5**alpha), 0.5**alpha + step / 2, step)
    gb = np.arange(-1.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ga, gb, indexing="ij")
    phis = [np.zeros_like(a), a, b, -(a + b), np.zeros_like(a)]
    feasible = np.ones(a.shape, dtype=bool)
    for i in range(5):
        for j in range(i + 1, 5):
            feasible &= np.abs(phis[i] - phis[j]) <= (u[j] - u[i]) ** alpha
    obj = np.abs(sum(float(ci) * p for ci, p in zip(c, phis)))
    return float(np.max(np.where(feasible, obj, 0.0)))


def check_lp_sup(c, value: float, label: str) -> list[str]:
    want = holder_class_lp(c)
    if abs(value - want) <= LP_TOL * max(1.0, abs(want)):
        return []
    return [f"{label}: lp_sup {value!r} != oracle LP {want!r}"]


def check_lattice_q5(c, value: float, label: str) -> list[str]:
    """Lattice points are feasible, so they never beat the supremum; the
    lattice misses the optimum by at most about one step per unit of c."""
    lat = lattice_sup_q5(c)
    slack = LATTICE_STEP * float(np.sum(np.abs(c)))
    if lat <= value + LP_TOL and value - lat <= slack:
        return []
    return [f"{label}: lp_sup {value!r} vs lattice {lat!r} (allowed gap {slack:.3g})"]


def check_dict_below_lp(dict_value: float, lp_value: float, label: str) -> list[str]:
    if dict_value <= lp_value + LP_TOL:
        return []
    return [f"{label}: dict_sup {dict_value!r} exceeds lp_sup {lp_value!r}"]


def hat_coefficients_oracle(values, origin: float, h: float, y: float, t: float, q: int) -> np.ndarray:
    """c_i = (1/t) int f(x) hat((x - z_i) / (t hn)) dx with z_i = y - t u_i,
    hn = 2 / (q - 1), by the midpoint rule between merged breakpoints (the
    integrand is linear on each piece, so the rule is exact)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    hn = 2.0 / (q - 1)
    w = t * hn
    edges = origin + h * np.arange(n + 1)
    out = np.zeros(q)
    for i, ui in enumerate(np.linspace(-1.0, 1.0, q)):
        z = y - t * ui
        inside = edges[(edges > z - w) & (edges < z + w)]
        pts = np.unique(np.concatenate([inside, [z - w, z, z + w]]))
        mid = 0.5 * (pts[1:] + pts[:-1])
        cell = np.floor((mid - origin) / h).astype(int)
        fv = np.where((cell >= 0) & (cell < n), values[np.clip(cell, 0, n - 1)], 0.0)
        hv = np.maximum(0.0, 1.0 - np.abs(mid - z) / w)
        out[i] = float(np.sum(np.diff(pts) * fv * hv)) / t
    return out


def g_tilde_oracle(values, level_L: int, resolution_s: int, origin: float = 0.0,
                   q: int = 17, alpha: float = ALPHA) -> np.ndarray:
    """The box square function from its definition with one node per
    Carleson box: G~(x)^2 = sum over dyadic Q with x in 3Q of gamma_Q^2,
    gamma_Q^2 = A(y_Q, t_Q)^2 |T(Q)| / t_Q^2, the node at the box centre
    (y = centre of Q, t = 3 l(Q) / 4), |T(Q)| = l(Q)^2 / 2, levels l(Q) from
    2^L down to 2^(1-s), every Q whose triple meets the domain."""
    values = np.asarray(values, dtype=float)
    n = values.size
    h = 2.0**-resolution_s
    end = origin + n * h
    centers = origin + h * (np.arange(n) + 0.5)
    acc = np.zeros(n)
    for k in range(-level_L, resolution_s):
        side = 2.0**-k
        j = math.floor(origin / side) - 2
        while (j - 1) * side < end:
            if (j + 2) * side > origin:
                y, t = (j + 0.5) * side, 0.75 * side
                v = holder_class_lp(hat_coefficients_oracle(values, origin, h, y, t, q), alpha)
                inside = (centers >= (j - 1) * side) & (centers < (j + 2) * side)
                acc[inside] += v * v * (side * side / 2.0) / (t * t)
            j += 1
    return np.sqrt(acc)


def check_g_tilde(got, want, label: str) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    if err <= LP_TOL * max(1.0, float(np.max(np.abs(want)))):
        return []
    return [f"{label}: g_tilde differs from the box-sum oracle by {err:.3g}"]


def check_scans(reports: dict) -> list[str]:
    """Every scan passed; the two sandwich sides are exact to 1e-12."""
    out = []
    for lemma, rep in reports.items():
        if not rep.passed:
            out.append(f"scan {lemma}: not passed (max={rep.max_base!r}, drift={rep.drift!r})")
        if lemma.startswith("5.1-"):
            worst = max(max(c.ratio_base, c.ratio_refined) for c in rep.cases)
            if not worst <= 1e-12:
                out.append(f"scan {lemma}: sandwich violated by {worst!r}")
    return out


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------


def sharp_exponent(operator: str, p: float) -> float:
    """The paper's sharp A_p exponents: 1/(p-1) for the maximal function,
    max(1/2, 1/(p-1)) for the square functions, max(1, 1/(p-1)) for the
    Hilbert transform."""
    base = 1.0 / (p - 1.0)
    if operator == "maximal":
        return base
    if operator in ("sd", "gtilde"):
        return max(0.5, base)
    if operator in ("hilbert", "hilbert-max"):
        return max(1.0, base)
    raise ValueError(f"no sharp exponent recorded for {operator!r}")


def check_fit(name: str, result, window) -> list[str]:
    """Slope inside its frozen window, no overshoot of the sharp exponent,
    and the slope is the least-squares slope of the reported points."""
    out = []
    target = sharp_exponent(result.spec.operator, result.spec.p)
    lo, hi = window
    if not lo <= result.slope <= hi:
        out.append(f"fit {name}: slope {result.slope!r} outside [{lo}, {hi}]")
    if not result.slope <= target + 0.1:
        out.append(f"fit {name}: slope {result.slope!r} above sharp exponent {target!r} + 0.1")
    xs = np.array([math.log(pt.ap_char) for pt in result.points])
    ys = np.array([math.log(pt.ratio) for pt in result.points])
    if min(pt.ap_char for pt in result.points) < 1.0:
        out.append(f"fit {name}: an A_p characteristic below 1")
    slope = float(np.polyfit(xs, ys, 1)[0])
    if not abs(slope - result.slope) <= 1e-9 * max(1.0, abs(slope)):
        out.append(f"fit {name}: reported slope {result.slope!r} != refit {slope!r}")
    return out


def fit_input(resolution_s: int, delta: float) -> np.ndarray:
    """Exact cell averages of |x|^(delta-1) chi_(0,1) on [-1, 1) with 2^(1+s) cells."""
    h = 2.0**-resolution_s
    n = 2 ** (1 + resolution_s)
    x = -1.0 + h * np.arange(n + 1)
    vals = np.zeros(n)
    right = n // 2  # first cell at x = 0
    vals[right:] = np.diff(x[right:] ** delta) / (delta * h)
    return vals


def check_isometry(f_values, sd_values, label: str) -> list[str]:
    """The martingale square function with its root term is L^2-isometric."""
    nf = math.sqrt(math.fsum(np.asarray(f_values, dtype=float) ** 2))
    ns = math.sqrt(math.fsum(np.asarray(sd_values, dtype=float) ** 2))
    rel = abs(ns - nf) / nf
    if rel <= 1e-12:
        return []
    return [f"{label}: ||S_d f||_2 / ||f||_2 - 1 = {rel:.3g}"]


def check_maximal_dominates(f_values, mf_values, label: str) -> list[str]:
    bad = int(np.sum(np.asarray(mf_values) < np.abs(np.asarray(f_values))))
    return [] if bad == 0 else [f"{label}: M f < |f| on {bad} cells"]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _dyadic_lengths(n: int):
    ln = 1
    while ln <= n:
        yield ln
        ln *= 2


def ainfty_oracle(values) -> float:
    """Fujii-Wilson functional over grid-aligned dyadic-length windows Q,
    with M taken over the same family inside the domain.  For each Q,
    M(w chi_Q) is formed by a direct sliding maximum of every window
    average, which is O(N^2) per Q."""
    w = np.asarray(values, dtype=float)
    n = w.size
    best = 0.0
    for ln in _dyadic_lengths(n):
        for a in range(n - ln + 1):
            g = np.zeros(n)
            g[a : a + ln] = w[a : a + ln]
            mg = g.copy()
            for m in _dyadic_lengths(n):
                if m == 1:
                    continue
                avg = sliding_window_view(g, m).mean(axis=1)
                pad = np.full(m - 1, -np.inf)
                np.maximum(mg, sliding_window_view(np.concatenate([pad, avg, pad]), m).max(axis=1),
                           out=mg)
            best = max(best, float(np.sum(mg[a : a + ln])) / float(np.sum(w[a : a + ln])))
    return best


def ap_oracle(w_values, sigma_values, p: float) -> float:
    """sup over grid-aligned dyadic-length windows of
    (avg w) (avg sigma)^(p-1), each average a direct window mean."""
    w = np.asarray(w_values, dtype=float)
    s = np.asarray(sigma_values, dtype=float)
    best = 1.0
    for ln in _dyadic_lengths(w.size):
        aw = sliding_window_view(w, ln).mean(axis=1)
        asg = sliding_window_view(s, ln).mean(axis=1)
        best = max(best, float(np.max(aw * asg ** (p - 1.0))))
    return best


def dual_sigma(weight, p: float) -> np.ndarray:
    """w^(-1/(p-1)) cell values; for a power weight c|x - x0|^a the exact
    cell averages of its dual power, when that power is integrable."""
    spec = weight.power
    if spec is not None:
        a = -spec.exponent / (p - 1.0)
        if a > -1.0:
            edges = weight.base.cell_edges() - spec.center
            anti = np.sign(edges) * np.abs(edges) ** (a + 1.0) / (a + 1.0)
            return spec.coeff ** (-1.0 / (p - 1.0)) * np.diff(anti) / np.diff(edges)
    return np.asarray(weight.values, dtype=float) ** (-1.0 / (p - 1.0))


def check_weight_value(name: str, value: float, want: float, label: str) -> list[str]:
    value = float(value)
    out = []
    if not value >= 1.0:
        out.append(f"{label}: {name} = {value!r} < 1")
    if not abs(value - want) <= 1e-12 * max(1.0, abs(want)):
        out.append(f"{label}: {name} = {value!r} != brute force {want!r}")
    return out


def check_ratio(value: float, want: float, label: str) -> list[str]:
    if abs(value - want) <= 1e-12 * max(1.0, abs(want)):
        return []
    return [f"{label}: scan ratio {value!r} != brute-force ratio {want!r}"]


# ---------------------------------------------------------------------------
# stopping-time decompositions
# ---------------------------------------------------------------------------


def check_cubes(generations, ncells: int, label: str) -> list[str]:
    """Re-derive the structure from the cube lists alone.  `generations` is
    a list of generations, each a list of (a, b, parent) cell ranges, with
    parent the index of the containing cube in the previous generation.

    Checks: dyadic alignment, disjointness within a generation, nesting in
    the stated parent, and |Omega_{k+1} cap Q| <= |Q| / 2 for every Q.
    """
    out = []
    prev_label = np.zeros(ncells, dtype=int)  # generation -1: the root, cube 0
    for k, gen in enumerate(generations):
        count = np.zeros(ncells + 1, dtype=int)
        label_k = np.full(ncells, -1)
        for idx, (a, b, parent) in enumerate(gen):
            size = b - a
            if size < 1 or size & (size - 1) or a % size or not 0 <= a < b <= ncells:
                out.append(f"{label}: generation {k} cube [{a}, {b}) is not dyadic")
                continue
            count[a] += 1
            count[b] -= 1
            label_k[a:b] = idx
            owner = prev_label[a:b]
            if owner.min() != owner.max() or owner[0] != parent:
                out.append(f"{label}: generation {k} cube [{a}, {b}) not nested in its parent")
        if int(np.max(np.cumsum(count))) > 1:
            out.append(f"{label}: generation {k} cubes overlap")
        covered = np.concatenate([[0], np.cumsum(label_k >= 0)])
        parents = generations[k - 1] if k > 0 else [(0, ncells, -1)]
        for a, b, _ in parents:
            if 2 * int(covered[b] - covered[a]) > b - a:
                out.append(f"{label}: generation {k} covers more than half of [{a}, {b})")
        prev_label = label_k
    return out


def cubes_of(decomposition) -> list[list[tuple[int, int, int]]]:
    return [[(sc.a, sc.b, sc.parent_ref) for sc in gen] for gen in decomposition.generations]


def cubes_of_json(obj: dict) -> list[list[tuple[int, int, int]]]:
    return [[(rec["cells"][0], rec["cells"][1], rec["parent"]) for rec in gen]
            for gen in obj["generations"]]
