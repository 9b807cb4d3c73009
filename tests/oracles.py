"""Per-call reference implementations kept as test oracles: for the
sorted-blocks table, the oscillation window count in Fraction arithmetic,
the stopping-time decomposition with one `median` and one `local_osc` call
per cube and its child selection taken from the definition, the exact
integral of |f| over an interval with Fraction endpoints, A_gamma with one
exact-Fraction 45Q average per stopping cube, and the scan-5.2 value with
one `local_osc` call and one exact-Fraction 15Q average per dyadic cube; for the shared vertex pool, the "lp" evaluator of one
engine build with a pool of its own and every basis inverted afresh; the
A_p characteristic evaluated at every window of every length, and the
power weight |x|^a on [-1, 1) that the A_p tests take; the Hilbert
kernel summed directly per cell, the truncated transform as one
convolution of every cell with the whole kernel, and T* as one truncated
transform per delta; the hat coefficients and psi convolutions of every
node, each node's hat CDFs evaluated on its own; the intrinsic and psi
engines on a quadrature of several nodes per box, the refinement oracle
of their one node; the psi engine's one-node oracle, f * psi_t(y) at a single point; the feasible Hölder-class
member `HolderKernel`; the psi Hölder seminorm as one pass per lag; the maximal function
with one whole-grid pass per length; the dyadic square function with one
mean(axis=1) per level and its sum carried in every cell; the exponent
fit's ladder point with every power-family closed form evaluated on the
whole grid, its A_p dual formed by Weight.sigma_values; the power
family's cell averages with the sign of u applied by a masked negation;
and the q = 5 Hölder-class supremum on an exhaustive lattice."""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sharpwt.decomp import GAMMA, LAMBDA_N, Decomposition, StopCube
from sharpwt.gridfn import GridFunction, interval_sums, local_osc, median, prefix_sums
from sharpwt.harness import FitPoint, FitResult, _least_squares, _operator_on
from sharpwt.intrinsic import (
    ALPHA,
    Q,
    ConeQuadrature,
    SquareFunctionEngine,
    _NODE_CHUNK,
    _VertexPool,
    _hat_cdf,
    _hat_rows,
    _holder_class,
    _trapezoid_weights,
)
from sharpwt.operators import (
    PSI,
    _hilbert_kernel,
    _log_table,
    _psi_rows,
    _trailing_max,
    hilbert_truncated,
    truncation_ladder,
)
from sharpwt.weights import PowerWeightSpec, Weight, ap_characteristic, power_cell_averages, weighted_lp_norm


def sup_rows_per_build(cls):
    """The Hölder-class supremum per row of c, by the simplex with a vertex
    pool local to the returned function: each solve starts from the pooled
    vertex best for its objective and inverts its basis itself."""
    bases = [cls._start]
    xs = np.linalg.solve(cls._a[cls._start], cls._b[cls._start])[None, :]
    seen = {np.sort(cls._start).tobytes()}

    def sup_rows(rows: np.ndarray) -> np.ndarray:
        nonlocal xs
        out = np.zeros(len(rows))
        for i, c in enumerate(rows):
            ci = c[1:-1]
            if not ci.any():
                continue
            start = int(np.argmax(xs @ ci))
            x, _, basis, _, _ = cls._solve(c, bases[start])
            key = np.sort(basis).tobytes()
            if key not in seen:
                seen.add(key)
                bases.append(basis)
                xs = np.vstack([xs, x])
            out[i] = max(float(ci @ x), 0.0)
        return out

    return sup_rows


def window_count_fraction(lam, m: int) -> int:
    """ceil((1 - lam) * m) via exact Fraction arithmetic."""
    need = (1 - Fraction(lam)) * m
    k = int(need)
    if k < need:
        k += 1
    return k


def dense_children(mask: np.ndarray) -> list[tuple[int, int]]:
    """Every proper dyadic subinterval of [0, mask.size) in which more than
    half of the cells are masked and no proper ancestor inside [0, mask.size)
    is, in order of start; each interval is tested on its own cells."""
    m = mask.size

    def dense(a, size):
        return 2 * int(np.count_nonzero(mask[a : a + size])) > size

    out = []
    size = m // 2
    while size >= 1:
        for a in range(0, m, size):
            ancestors = (size << k for k in range(1, (m // size).bit_length() - 1))
            if dense(a, size) and not any(dense(a - a % big, big) for big in ancestors):
                out.append((a, a + size))
        size //= 2
    return sorted(out)


def decompose_per_call(f: GridFunction) -> Decomposition:
    """The decomposition of f on its whole grid at LAMBDA_N, every median
    and oscillation coefficient by its own per-cube call."""
    lam = LAMBDA_N
    root_median = median(f)
    generations: list[list[StopCube]] = []
    current = [(0, f.ncells, root_median, -1)]
    while True:
        next_gen: list[StopCube] = []
        next_parents = []
        for parent_idx, (pa, pb, m_p, _) in enumerate(current):
            m = pb - pa
            if m < 2:
                continue
            g = np.abs(f.values[pa:pb] - m_p)
            allowed = int(lam * m)  # floor: cells permitted above the threshold
            tau = 0.0 if allowed >= m else float(np.sort(g)[::-1][allowed])
            mask = g > tau
            if not mask.any():
                continue
            for a, b in dense_children(mask):
                a, b = a + pa, b + pa
                size2 = 2 * (b - a)
                qa = (a // size2) * size2
                next_gen.append(
                    StopCube(
                        a=a,
                        b=b,
                        osc_coeff=local_osc(f, (qa, qa + size2), lam),
                        parent_ref=parent_idx,
                    )
                )
                next_parents.append((a, b, median(f, (a, b)), parent_idx))
        if not next_gen:
            break
        generations.append(next_gen)
        current = next_parents
    for k, gen in enumerate(generations):
        child_cells = np.zeros(len(gen), dtype=int)
        if k + 1 < len(generations):
            for sc in generations[k + 1]:
                child_cells[sc.parent_ref] += sc.ncells
        for j, sc in enumerate(gen):
            sc.e_cells = sc.ncells - int(child_cells[j])
    return Decomposition(f, root_median, generations)


def integral_abs_interval(f: GridFunction, lo: Fraction, hi: Fraction) -> float:
    """Exact integral of |f| over [lo, hi), f extended by zero; endpoints
    need not be grid-aligned."""
    lo = max(lo, f.origin)
    hi = min(hi, f.domain_end)
    if hi <= lo:
        return 0.0
    h = f.cell_width
    ia = (lo - f.origin) / h
    ib = (hi - f.origin) / h
    full_a = int(math.ceil(ia))
    full_b = int(math.floor(ib))
    if full_a > full_b:  # entirely inside one cell
        return abs(f.values[int(math.floor(ia))]) * float((ib - ia) * h)
    total = f.integral_abs(full_a, full_b) if full_b > full_a else 0.0
    if ia < full_a:
        total += abs(f.values[full_a - 1]) * float((full_a - ia) * h)
    if ib > full_b:
        total += abs(f.values[full_b]) * float((ib - full_b) * h)
    return total


def a_gamma_per_cube(f: GridFunction, d: Decomposition) -> np.ndarray:
    """A_gamma's values with each stopping cube's 45Q placed in exact
    Fraction coordinates, centred on the cube, and its average taken by
    `integral_abs_interval`, one cube at a time."""
    h = f.cell_width
    cubes = d.all_cubes()
    sq = []
    for sc in cubes:
        lo = f.origin + Fraction(sc.a + sc.b, 2) * h - GAMMA * Fraction(sc.ncells, 2) * h
        width = GAMMA * sc.ncells * h
        avg = integral_abs_interval(f, lo, lo + width) / float(width)
        sq.append(avg * avg)
    acc = interval_sums(f.ncells, [sc.a for sc in cubes], [sc.b for sc in cubes], sq)
    return np.maximum(acc, 0.0)


def local_sharp_ratio_per_cube(g: GridFunction, gt2: np.ndarray) -> float:
    """max over the dyadic cubes Q of levels 2-6 of
    osc_{1/8}(gt2; Q) / (avg_{15Q} |g|)^2, 15Q placed in exact Fraction
    coordinates at origin + a h - 7 |Q|."""
    lam = Fraction(1, 8)
    gt2f = g.with_values(gt2)
    worst = 0.0
    for lev in range(2, 7):
        size = g.ncells >> lev
        if size < 1:
            continue
        for a in range(0, g.ncells, size):
            osc = local_osc(gt2f, (a, a + size), lam)
            lo = g.origin + a * g.cell_width - 7 * size * g.cell_width
            width = 15 * size * g.cell_width
            avg = integral_abs_interval(g, lo, lo + width) / float(width)
            if avg > 1e-9:
                worst = max(worst, osc / avg**2)
    return worst


def ap_characteristic_dense(w, p: float, every_length: bool = False) -> float:
    """sup over the test family of (avg_Q w) (avg_Q w^(-1/(p-1)))^(p-1),
    every window of every dyadic length evaluated; with `every_length`, the
    same supremum over all grid-aligned intervals, O(N^2)."""
    if p <= 1:
        raise ValueError("A_p requires p > 1")
    pw = w.base._prefix
    ps = prefix_sums(w.sigma_values(p))
    lengths = range(1, w.ncells + 1) if every_length else (1 << k for k in range(w.ncells.bit_length()))
    best = 1.0
    for ln in lengths:
        avg_w = (pw[ln:] - pw[:-ln]) / ln
        avg_s = (ps[ln:] - ps[:-ln]) / ln
        best = max(best, float(np.max(avg_w * avg_s ** (p - 1.0))))
    return best


def power_weight_pm1(resolution_s: int, a: float) -> Weight:
    """The power weight |x|^a on [-1, 1) at resolution s, with its spec:
    the singularity sits mid-grid, where the A_p tests want it."""
    spec = PowerWeightSpec(a)
    probe = GridFunction(1, resolution_s, np.zeros(2 ** (1 + resolution_s)), -1)
    return Weight(probe.with_values(spec.cell_averages(probe.cell_edges())), power=spec)


def hilbert_kernel_direct(n: int, h: float, delta: float) -> np.ndarray:
    """k[d] = int over u in [(d-1/2)h, (d+1/2)h], |u|>delta, of du/u, for
    d = -n .. n, each cell's two pieces summed from their own logs."""
    d = np.arange(-n, n + 1, dtype=float)
    a = (d - 0.5) * h
    b = (d + 0.5) * h
    out = np.zeros(d.size)
    # negative piece [a, min(b, -delta)]
    hi = np.minimum(b, -delta)
    m = a < hi
    out[m] += np.log(-hi[m]) - np.log(-a[m])
    # positive piece [max(a, delta), b]
    lo = np.maximum(a, delta)
    m = lo < b
    out[m] += np.log(b[m]) - np.log(lo[m])
    return out


def hilbert_full_kernel(f: GridFunction, delta: float) -> np.ndarray:
    """The truncated transform at delta as one convolution of every cell
    with the whole kernel of 2n + 1 entries: np.convolve up to 4096 cells,
    else a zero-padded FFT over the shortest power of two of at least 2n
    points."""
    n, h = f.ncells, float(f.cell_width)
    kernel = _hilbert_kernel(_log_table(n, h), h, float(delta))
    if n <= 4096:
        full = np.convolve(f.values, kernel)
    else:
        length = 1 << (2 * n - 1).bit_length()
        full = np.fft.irfft(np.fft.rfft(f.values, length) * np.fft.rfft(kernel, length), length)
    return full[n : 2 * n]


def node_cells_every_node(f: GridFunction, lo: np.ndarray, hi: np.ndarray, floats_per_cell: int):
    """The cells that each node's kernel support [lo[n], hi[n]] meets, for
    every node, padded with zero cells to the widest support, in chunks of
    nodes: yields (nodes slice, cell edges (n, width + 1), cell values
    (n, width))."""
    edges = f.cell_edges()
    a = np.maximum(np.searchsorted(edges, lo, "right") - 1, 0)
    b = np.minimum(np.searchsorted(edges, hi, "left"), f.ncells)
    width = int(np.max(b - a, initial=0))
    if width <= 0:
        return
    cells = np.arange(width + 1)
    values = np.append(f.values, 0.0)
    chunk = max(1, _NODE_CHUNK // (floats_per_cell * (width + 1)))
    for start in range(0, lo.size, chunk):
        part = slice(start, start + chunk)
        idx = np.minimum(a[part, None] + cells, f.ncells)
        vals = np.where(idx[:, :-1] < b[part, None], values[idx[:, :-1]], 0.0)
        yield part, edges[idx], vals


def hat_rows_per_node(f: GridFunction, ys: np.ndarray, ts: np.ndarray, q: int) -> np.ndarray:
    """hat_coefficients at every node, each node's hat CDFs evaluated at its
    own transported cell edges."""
    h_node = 2.0 / (q - 1)
    wh = ts * h_node
    u = np.linspace(-1.0, 1.0, q)
    out = np.zeros((ys.size, q))
    for part, edges, vals in node_cells_every_node(f, ys - ts - wh, ys + ts + wh, q):
        z_centers = ys[part, None] - ts[part, None] * u
        xi = (edges[:, None, :] - z_centers[:, :, None]) / wh[part, None, None]
        out[part] = h_node * (np.diff(_hat_cdf(xi), axis=2) @ vals[:, :, None])[:, :, 0]
    return out


def psi_rows_per_node(f: GridFunction, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f * psi_t(y) at every node, one row-wise dot per chunk of nodes."""
    out = np.zeros(ys.size)
    for part, edges, vals in node_cells_every_node(f, ys - ts, ys + ts, 1):
        cdf = PSI.cumulative((ys[part, None] - edges) / ts[part, None])
        out[part] = np.einsum("ij,ij->i", vals, -np.diff(cdf, axis=1))
    return out


def refined_engine(f: GridFunction, nodes_per_box: int, functional: str = "lp") -> SquareFunctionEngine:
    """The engine of f on the quadrature of nodes_per_box^2 nodes per
    Carleson box, the refinement oracle of the one-node engines.  Its node
    functional: the class supremum at ALPHA and Q by the simplex with a pool
    of its own ("lp"), the dictionary's lower bound ("dictionary"), or
    |f * psi_t(y)| ("psi").  At one node per box it is the program's engine,
    bit for bit."""
    if functional == "psi":
        def level_eval(ys, ts):
            return np.abs(_psi_rows(f, ys, ts))
    else:
        cls = _holder_class(ALPHA, Q)
        sup_rows = _VertexPool(cls).sup_rows if functional == "lp" else cls._dict_rows

        def level_eval(ys, ts):
            return sup_rows(_hat_rows(f, ys, ts, Q))
    return SquareFunctionEngine(f, ConeQuadrature.for_grid(f, nodes_per_box), level_eval)


def psi_convolve_at(f: GridFunction, y: float, t: float) -> float:
    """Exact f * psi_t(y) for step f, psi_t(x) = t^-1 psi(x/t): the psi
    engine's one-node oracle."""
    edges = f.cell_edges()
    a = max(int(np.searchsorted(edges, y - t, "right")) - 1, 0)
    b = min(int(np.searchsorted(edges, y + t, "left")), f.ncells)
    if b <= a:
        return 0.0
    w = PSI.cumulative((y - edges[a : b + 1]) / t)
    return float(np.dot(f.values[a:b], -np.diff(w)))


@dataclass(frozen=True)
class HolderKernel:
    """A feasible member of the discretized Hölder class."""

    alpha: float
    samples: np.ndarray  # length q, endpoints zero

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def q(self) -> int:
        return self.samples.size

    def nodes(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.q)

    def holder_excess(self) -> float:
        """max over node pairs of |phi_u - phi_v| - |u - v|^alpha (<= 0 iff feasible)."""
        u = self.nodes()
        worst = -np.inf
        for lag in range(1, self.q):
            gap = (u[lag] - u[0]) ** self.alpha
            worst = max(worst, float(np.max(np.abs(self.samples[lag:] - self.samples[:-lag]))) - gap)
        return worst

    def trapezoid_mean(self) -> float:
        w = _trapezoid_weights(self.q)
        return float(np.dot(w, self.samples))


def hilbert_max_per_delta(f: GridFunction) -> np.ndarray:
    """T* f with one `hilbert_truncated` call per delta of the ladder."""
    out = np.zeros(f.ncells)
    for delta in truncation_ladder(f):
        np.maximum(out, np.abs(hilbert_truncated(f, float(delta)).values), out=out)
    return out


def holder_seminorm_per_lag(kernel, alpha: float, samples: int = 4001) -> float:
    """sup of |psi(u)-psi(v)| / |u-v|^alpha on the dense grid, one lag per pass."""
    u = np.linspace(-1.0, 1.0, samples)
    vals = kernel(u)
    best = 0.0
    for lag in range(1, samples):
        num = np.abs(vals[lag:] - vals[:-lag])
        best = max(best, float(np.max(num)) / (u[lag] - u[0]) ** alpha)
    return best


def maximal_whole_grid(f: GridFunction) -> np.ndarray:
    """M f with every window length's averages and their trailing max taken
    over the whole grid at once."""
    out = np.abs(f.values)
    n = out.size
    prefix = np.concatenate(([0.0], np.cumsum(out)))
    avg = np.empty(n)  # avg[a] = mean of |f| over [a, a+w), -inf past the last window
    spare = np.empty(n)
    w = 2
    while w <= n:
        m = n - w + 1  # windows of length w
        np.subtract(prefix[w:], prefix[:-w], out=avg[:m])
        avg[:m] /= w
        if m <= w + 1:
            k = min(w, m)
            head = np.maximum.accumulate(avg[:k])
            np.maximum(out[:k], head, out=out[:k])
            np.maximum(out[k:w], head[-1], out=out[k:w])
            np.maximum(out[w:], np.maximum.accumulate(avg[m - 1 : 0 : -1])[::-1], out=out[w:])
        else:
            avg[m:] = -np.inf
            np.maximum(out, _trailing_max(avg, spare, w), out=out)
        w *= 2
    return out


def dyadic_square_mean_per_level(f: GridFunction) -> np.ndarray:
    """S_d f with every level's cube averages taken by mean(axis=1)."""
    v = f.values
    n = v.size
    acc = np.full(n, float(np.mean(v)) ** 2)
    parent = np.full(1, np.mean(v))
    size = n // 2
    while size >= 1:
        avg = v.reshape(n // size, size).mean(axis=1)
        diff = avg.reshape(-1, 2) - parent[:, None]
        rows = acc.reshape(-1, size)
        rows += (diff * diff).reshape(-1, 1)
        parent = avg
        size //= 2
    return np.sqrt(acc)


def extremal_pair_full_grid(spec, grid: GridFunction, edges: np.ndarray, delta: float):
    """(f, eval weight, eval exponent, x-axis weight, x-axis dual cell
    values) for one ladder point, each power-family weight from its own
    closed form on the whole grid, f's on the cells of (0, 1)."""
    p = spec.p
    dual = spec.weight_family == "dual-pair"
    p_eval = p / (p - 1.0) if dual else p

    def power(a):
        pw = PowerWeightSpec(a)
        return Weight(grid.with_values(pw.cell_averages(edges)), power=pw)

    w_eval = power((1 - delta) * (p_eval - 1))
    i0 = int(np.searchsorted(edges, 0.0))
    i1 = int(np.searchsorted(edges, 1.0, "right")) - 1
    vals = np.zeros(grid.ncells)
    vals[i0:i1] = power_cell_averages(edges[i0 : i1 + 1], -1 + delta)
    f = grid.with_values(vals)
    w_axis = w_eval if not dual else power(-(1 - delta))
    return f, w_eval, p_eval, w_axis, w_axis.sigma_values(p)


def power_cell_averages_masked(edges: np.ndarray, a: float, center: float = 0.0) -> np.ndarray:
    """Exact cell averages of |x - center|^a between consecutive edges, with
    u = edges - center, sign(u) |u|^(a+1) negated where u < 0, and the
    differences of the edges taken afresh."""
    u = np.asarray(edges, dtype=float) - center
    anti = np.abs(u)
    anti **= a + 1.0
    np.negative(anti, out=anti, where=u < 0)
    anti /= a + 1.0
    avg = np.diff(anti)
    avg /= np.diff(edges)
    return avg


def exponent_experiment_full_grid(spec) -> FitResult:
    """The exponent fit on extremal_pair_full_grid, its A_p taken with the
    dual that ap_characteristic forms itself."""
    grid = GridFunction(1, spec.resolution_s, np.zeros(2 ** (1 + spec.resolution_s)), origin=-1)
    edges = grid.cell_edges()
    op = _operator_on(spec.operator, grid)
    points = []
    for delta in spec.deltas:
        f, w_eval, p_eval, w_axis, _ = extremal_pair_full_grid(spec, grid, edges, delta)
        den = (1.0 / delta) ** (1.0 / p_eval)
        ratio = 1.0 if op is None else weighted_lp_norm(op(f), w_eval, p_eval) / den
        ap = ap_characteristic(w_axis, spec.p)
        share = float(f.cell_width) ** delta
        points.append(FitPoint(delta, ap, ratio, math.log(ap), math.log(ratio), share, share > 0.10))
    slope, intercept, r2 = _least_squares([q.log_ap for q in points], [q.log_ratio for q in points])
    return FitResult(spec, slope, intercept, r2, points)


@functools.lru_cache(maxsize=4)
def _lattice_q5(alpha: float, step: float, box: float) -> tuple[np.ndarray, ...]:
    """phi_0 .. phi_4 at the feasible points of the lattice, in row-major
    order of the full (a, b) grid."""
    u = np.linspace(-1, 1, 5)
    grid = np.arange(-box, box + step / 2, step)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    phis = [np.zeros_like(a), a, b, -(a + b), np.zeros_like(a)]
    feas = np.ones_like(a, dtype=bool)
    for i in range(5):
        for j in range(i + 1, 5):
            feas &= np.abs(phis[i] - phis[j]) <= (u[j] - u[i]) ** alpha
    out = tuple(phi[feas] for phi in phis)
    for phi in out:
        phi.flags.writeable = False
    return out


def lattice_sup_q5(c, alpha: float, step: float = 1e-3, box: float = 0.85) -> float:
    """Exhaustive lattice over the two free coordinates (the trapezoid
    constraint eliminates phi_3 = -(phi_1 + phi_2) exactly): the max of
    |c . phi| over its feasible points, 0 if it has none."""
    obj = np.abs(sum(ci * phi for ci, phi in zip(c, _lattice_q5(alpha, step, box))))
    return float(np.max(obj, initial=0.0))
