"""The intrinsic square function machinery: the sup over a discretized
Hölder class evaluated per upper-half-plane node by an exact primal simplex
(or a fixed feasible dictionary giving certified lower bounds), one shared
Carleson-box quadrature, and the cone / box aggregations built on it.

The discrete class: piecewise-linear kernels on q uniform nodes in [-1, 1],
pinned to zero at both endpoints, mean-zero in the exact trapezoid sense
(which is the exact integral of the interpolant), with the Hölder bound
enforced on all node pairs.  The objective f * phi_t(y) is linear in the
node values with coefficients given by exact integrals of the transported
hat basis against the step function f.

The class supremum is a linear program over the fixed polytope of the q - 2
free node values.  A vertex is given by a basis of q - 3 tight signed
Hölder rows plus the mean-zero row; the simplex walks between vertices
(largest-coefficient rule, then Bland's rule from the first degenerate step
on, so it cannot cycle) and stops at one whose Hölder-row multipliers are
all >= 0, which certifies it optimal, up to a floor: no multiplier below
-1e-13 * max|c|, and the negative ones together adding at most half the
width bound below to the node's certified interval.  The class finds its
first vertex by walking from phi = 0 along null-space directions of the
rows made tight so far.
`intrinsic_engines` builds the engines of a sequence of grids in order
through one vertex pool, which lives for that call only: each engine solves
its nodes one quadrature level at a time, in a fixed order, each starting
from the best vertex found so far in the call, with that vertex's cached
basis inverse.  `intrinsic_engine` is its one-grid case.  Every solved node
gets a weak-duality interval that holds whatever vertex the simplex stopped
at, and a build raises if one is wider than 1e-12 * max|c|.  A
general-purpose LP solver (scipy's HiGHS interface) is kept only as the test
oracle.  Both take the evaluator by name ("lp" or "dictionary") and reject
any other.  The class is fixed: alpha = ALPHA = 1/2 and q = Q = 17, one
quadrature node per Carleson box, and G_alpha takes the cone of aperture 1.
The engine keeps all its nodes and boxes in flat arrays and sums the cone and
box aggregations with `gridfn.interval_sums`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sharpwt.gridfn import GridFunction, interval_sums

_MULTIPLIER_TOL = 1e-13  # relative to max |c|: a multiplier below -tol * max|c| is improvable
_DIRECTION_TOL = 1e-9    # a row blocks a step only if it moves toward its bound by more
_RATIO_TIE = 1e-12       # step lengths this close are ties, broken by the smallest row index
_WIDTH_TOL = 1e-12       # relative to max |c|: widest certified interval a solved node may have
_NODE_CHUNK = 1 << 17    # float64 entries per chunk of a per-node cell tensor (nodes x q x cells for hats), ~1 MB
_CLASS_FROM = 1 << 13   # float64 entries of a chunk's hat tensor from which _hat_rows shares CDFs among node classes

ALPHA = 0.5  # the Hölder order of the class
Q = 17       # its kernels' nodes on [-1, 1]


def _trapezoid_weights(q: int) -> np.ndarray:
    h = 2.0 / (q - 1)
    w = np.full(q, h)
    w[0] = w[-1] = h / 2.0
    return w


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class HolderClass:
    """Constraint system for the discretized class at fixed (alpha, q), with
    an exact simplex evaluator and an 8-kernel feasible dictionary.  Holds
    only read-only data, so one instance may be shared."""

    def __init__(self, alpha: float, q: int):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if q < 3:
            raise ValueError("need at least 3 sample nodes")
        self.alpha = float(alpha)
        self.q = int(q)
        self.nodes = np.linspace(-1.0, 1.0, q)
        # variables: the free values phi_1..phi_{q-2}.  Row 0 is the mean-zero
        # equation (interior trapezoid weights are all equal); rows 1.. are
        # a . x <= b for both signs of every pair, the pinned pair excluded
        n = q - 2
        rows, rhs = [np.ones(n)], [0.0]
        for i in range(q):
            for j in range(i + 1, q):
                if (i, j) == (0, q - 1):
                    continue
                bound = (self.nodes[j] - self.nodes[i]) ** self.alpha
                row = np.zeros(q)
                row[i], row[j] = 1.0, -1.0
                rows += [row[1:-1], -row[1:-1]]
                rhs += [bound, bound]
        self._a = _frozen(np.array(rows))
        self._b = _frozen(np.array(rhs))
        self._start = _frozen(self._first_basis())
        self._dictionary = _frozen(self._build_dictionary())

    def _first_basis(self) -> np.ndarray:
        """A vertex basis reached from phi = 0: step along a null-space
        direction of the rows tight so far until one more row is tight."""
        a, b = self._a, self._b
        basis = [0]
        x = np.zeros(a.shape[1])
        while len(basis) < a.shape[1]:
            d = np.linalg.svd(a[basis])[2][-1]
            step, row = _ratio_test(a, b, x, d, basis)
            x = x + step * d
            basis.append(row)
        return np.array(basis)

    def _solve(self, c: np.ndarray, basis: np.ndarray | None = None, inv: np.ndarray | None = None,
               max_pivots: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Primal simplex for max c . phi from the vertex of `basis` (the
        class's first vertex by default), whose basis inverse may be passed
        as `inv`.  Returns the optimal vertex x (phi_1..phi_{q-2}), the
        multipliers y with A_B^T y = c (y[0] belongs to the mean-zero row and
        is free; the rest are >= -_MULTIPLIER_TOL * max|c|, and the negative
        ones sum to 2 |y_j| b_j <= _WIDTH_TOL / 2 * max|c|), the basis,
        its inverse and the number of pivots taken.  Raises if the pivot cap
        is reached."""
        a, b = self._a, self._b
        ci = np.asarray(c, dtype=float)[1:-1]
        scale = float(np.abs(ci).max(initial=0.0))
        tol = _MULTIPLIER_TOL * scale
        basis = (self._start if basis is None else basis).copy()
        cap = a.shape[0] if max_pivots is None else max_pivots
        bland = False
        for pivots in range(cap + 1):
            if inv is None:
                inv = np.linalg.inv(a[basis])
            y = ci @ inv
            x = inv @ b[basis]
            improving = (y[1:] < -tol).nonzero()[0] + 1
            if improving.size == 0:
                # each negative multiplier adds up to 2 |y_j| b_j to the
                # certified width; stop only once they leave it half the bound
                if -2.0 * float(np.minimum(y[1:], 0.0) @ b[basis[1:]]) <= 0.5 * _WIDTH_TOL * scale:
                    return x, y, basis, inv, pivots
                improving = (y[1:] < 0.0).nonzero()[0] + 1
            if pivots == cap:
                break
            # release the most negative multiplier's row while every step
            # strictly raises c . x, so no basis repeats; from the first
            # degenerate step on, Bland's rule (the improving row of smallest
            # index; the ratio test admits the blocking row of smallest
            # index), which cannot cycle
            r = improving[(basis[improving] if bland else y[improving]).argmin()]
            step, basis[r] = _ratio_test(a, b, x, -inv[:, r], basis)
            bland = bland or step <= _RATIO_TIE
            inv = None
        raise RuntimeError(f"holder-class simplex reached its pivot cap ({cap}) at alpha={self.alpha}, q={self.q}")

    def lp_sup(self, c: np.ndarray) -> float:
        """Exact max of |c . phi| over the class (the feasible set is
        symmetric under negation, so one maximization suffices)."""
        return float(_VertexPool(self).sup_rows(np.asarray(c, dtype=float)[None, :])[0])

    def _build_dictionary(self) -> np.ndarray:
        """8 feasible kernels: scaled odd sine bumps and mean-zero
        differences of even ones; values are certified lower bounds for the
        class supremum by feasibility."""
        u = self.nodes
        raw = [np.sin(k * np.pi * u) for k in (1, 2, 3, 4)]
        evens = {k: np.sin(k * np.pi * u) ** 2 for k in (1, 2, 3, 4)}
        for a, b in ((1, 2), (1, 3), (2, 3), (1, 4)):
            raw.append(evens[a] - evens[b])
        w = _trapezoid_weights(self.q)
        ref = evens[1]
        entries = []
        for v in raw:
            v = v.astype(float)
            v[0] = v[-1] = 0.0  # np.sin(k pi) is only zero to rounding
            for _ in range(2):  # drive the trapezoid mean to rounding level
                v = v - (np.dot(w, v) / np.dot(w, ref)) * ref
            v[0] = v[-1] = 0.0
            rho = max(
                float(np.max(np.abs(v[lag:] - v[:-lag]))) / (u[lag] - u[0]) ** self.alpha
                for lag in range(1, self.q)
            )
            entries.append(v / rho if rho > 0 else v)  # q = 3: the class is {0}
        return np.array(entries)

    def dict_sup(self, c: np.ndarray) -> float:
        return float(self._dict_rows(np.asarray(c, dtype=float)[None, :])[0])

    def _dict_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.max(np.abs(rows @ self._dictionary.T), axis=1)


def _ratio_test(a: np.ndarray, b: np.ndarray, x: np.ndarray, d: np.ndarray, basis) -> tuple[float, int]:
    """Longest step along d from x that keeps a . x <= b, and the row that
    blocks it (the smallest index among ties)."""
    ad = a @ d
    ad[basis] = 0.0
    rows = (ad > _DIRECTION_TOL).nonzero()[0]
    steps = np.maximum(b[rows] - a[rows] @ x, 0.0) / ad[rows]
    step = float(steps.min())
    return step, int(rows[(steps <= step + _RATIO_TIE).argmax()])


class _VertexPool:
    """Optimal vertices found during one `intrinsic_engines` call (or one
    lp_sup call), starting from the class's first vertex, each kept with its
    basis and basis inverse in arrays that grow by doubling.  Each solve
    starts from the pooled vertex best for its objective, chosen by one
    matmul, so a node whose start is already optimal costs two products with
    the cached inverse and no inversion.  The pool lives only as long as the
    call, so values depend on the grids of that call and their order, and on
    nothing that ran before.

    Every solved row gets a weak-duality interval (Neumaier and Shcherbina,
    Math. Program. 99 (2004)) that does not depend on the path the simplex
    took.  Upper: sum_j |y_j| b_{B_j} + ||c - A_B^T y||_1, since every
    Hölder row comes in both signs (|A_j phi| <= b_j) and |phi_i| <= 1 on
    the class.  Lower: c . x' / (1 + v) for x shifted to mean zero (x') and v
    its worst relative row violation, as x' / (1 + v) is feasible.  A width
    above _WIDTH_TOL * max|c| raises, as the pivot cap does."""

    def __init__(self, cls: HolderClass):
        self.cls = cls
        n = cls.q - 2
        self.size = 0
        self.bases = np.empty((8, n), dtype=np.intp)
        self.xs = np.empty((8, n))
        self.invs = np.empty((8, n, n))
        self.seen: set[bytes] = set()
        self.widest = 0.0  # widest certified interval so far, relative to max|c|
        start = cls._start
        self._add(start, np.linalg.solve(cls._a[start], cls._b[start]), np.linalg.inv(cls._a[start]))

    def _add(self, basis: np.ndarray, x: np.ndarray, inv: np.ndarray) -> None:
        key = np.sort(basis).tobytes()
        if key in self.seen:
            return
        self.seen.add(key)
        if self.size == len(self.xs):
            self.bases, self.xs, self.invs = (np.concatenate([arr, np.empty_like(arr)])
                                              for arr in (self.bases, self.xs, self.invs))
        self.bases[self.size], self.xs[self.size], self.invs[self.size] = basis, x, inv
        self.size += 1

    def sup_rows(self, rows: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(rows)):
            raise ValueError("LP objective coefficients must be finite")
        out = np.zeros(len(rows))
        solved = np.flatnonzero(rows[:, 1:-1].any(axis=1))
        c = rows[solved, 1:-1]
        xs, ys = np.empty_like(c), np.empty_like(c)
        bases = np.empty(c.shape, dtype=np.intp)
        for k, (i, ci) in enumerate(zip(solved, c)):
            start = int((self.xs[: self.size] @ ci).argmax())
            x, y, basis, inv, pivots = self.cls._solve(rows[i], self.bases[start], self.invs[start])
            if pivots:
                self._add(basis, x, inv)
            out[i] = max(float(ci @ x), 0.0)
            xs[k], ys[k], bases[k] = x, y, basis
        if solved.size:
            self._certify(c, xs, ys, bases)
        return out

    def _certify(self, c: np.ndarray, xs: np.ndarray, ys: np.ndarray, bases: np.ndarray) -> None:
        """The weak-duality interval of every row of c at its vertex xs,
        multipliers ys and basis bases, in a few array ops."""
        a, b = self.cls._a, self.cls._b
        resid = c - np.einsum("nij,ni->nj", a[bases], ys)                       # c - A_B^T y
        upper = np.sum(np.abs(ys) * b[bases], axis=1) + np.sum(np.abs(resid), axis=1)  # b[0] = 0
        shifted = xs - np.mean(xs, axis=1, keepdims=True)
        violation = np.max((shifted @ a[1:].T - b[1:]) / b[1:], axis=1)
        lower = np.maximum(np.sum(c * shifted, axis=1) / (1.0 + np.maximum(violation, 0.0)), 0.0)
        width = (upper - lower) / np.max(np.abs(c), axis=1)
        worst = float(np.max(width))
        if not worst <= _WIDTH_TOL:
            raise RuntimeError(f"holder-class simplex certified interval {worst:.3g} * max|c| exceeds "
                               f"{_WIDTH_TOL:g} at alpha={self.cls.alpha}, q={self.cls.q}")
        self.widest = max(self.widest, worst)


@lru_cache(maxsize=8)
def _holder_class(alpha: float, q: int) -> HolderClass:
    return HolderClass(alpha, q)


def _hat_cdf(xi: np.ndarray) -> np.ndarray:
    """CDF of the unit hat max(0, 1-|x|), clamped outside [-1, 1]."""
    xi = np.clip(xi, -1.0, 1.0)
    return np.where(xi <= 0, (1.0 + xi) ** 2 / 2.0, 1.0 - (1.0 - xi) ** 2 / 2.0)


def _node_cells(f: GridFunction, edges: np.ndarray, lo: np.ndarray, hi: np.ndarray, floats_per_cell: int):
    """The cells of f, with edges `edges`, that each node's kernel support
    [lo[n], hi[n]] meets, padded with zero cells to the widest support of
    all the nodes, for the nodes whose cells hold a nonzero value; the rest
    have all their coefficients 0.  The test counts nonzero cells exactly,
    in integers: a sum of |f| would lose a 1e-30 cell after cells of 1.0.
    In chunks of nodes sized so that a chunk's tensor of floats_per_cell
    floats per cell stays near _NODE_CHUNK, yields (node indices, cell
    indices (n, width + 1) clamped at cell ncells, cell values (n, width))."""
    a = np.maximum(np.searchsorted(edges, lo, "right") - 1, 0)
    b = np.minimum(np.searchsorted(edges, hi, "left"), f.ncells)
    width = int(np.max(b - a, initial=0))
    if width <= 0:
        return
    count = f._nonzero_count
    kept = np.flatnonzero(count[b] > count[a])
    a, b = a[kept, None], b[kept, None]
    cells = np.arange(width + 1)
    values = np.append(f.values, 0.0)
    chunk = max(1, _NODE_CHUNK // (floats_per_cell * (width + 1)))
    for start in range(0, kept.size, chunk):
        part = slice(start, start + chunk)
        idx = np.minimum(a[part] + cells, f.ncells)                               # (n, width + 1)
        vals = np.where(idx[:, :-1] < b[part], values[idx[:, :-1]], 0.0)         # (n, width)
        yield kept[part], idx, vals


def _exact_difference(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Whether d, the rounded x - y, is exact: Knuth's two-sum error of
    x + (-y) is zero."""
    y_virtual = d - x
    return x - (d - y_virtual) == y + y_virtual


def _hat_rows(f: GridFunction, ys: np.ndarray, ts: np.ndarray, q: int) -> np.ndarray:
    """hat_coefficients at every node (ys[n], ts[n]), as one tensor op per
    chunk of nodes.

    The hat CDFs are evaluated once per class of nodes: one t, one clamp at
    cell ncells (its last column) and one row z - e of transported centres
    z = y - t u less the node's first cell edge e, exact.  Cell edges are
    e + c h exactly, so a class sees the same (e + c h - z) / (t h_node) at
    every column c, and its first node's CDFs serve all of it, bit for bit.
    Quadrature nodes of one level that share t and their offset from their
    first cell's edge fall in one class whenever t u is dyadic (q - 1 and
    nodes_per_box powers of two); a node whose z - e rounds is a class of
    its own.  The contraction, the one the per-node evaluation runs, takes
    the C-contiguous gather of the class CDF differences: a matmul whose
    stack is strided along the cells rounds differently.  A chunk whose
    tensor holds fewer than _CLASS_FROM floats is evaluated node by node,
    each node its own class: there (with q = 17 and one node per box, on
    grids of 2^7 cells or fewer) finding the classes costs more than the
    CDFs it saves."""
    h_node = 2.0 / (q - 1)
    wh = ts * h_node
    u = np.linspace(-1.0, 1.0, q)
    edges = f.cell_edges()
    out = np.zeros((ys.size, q))
    for part, idx, vals in _node_cells(f, edges, ys - ts - wh, ys + ts + wh, q):
        z_centers = ys[part, None] - ts[part, None] * u                         # (n, q)
        rep = cls = slice(None)
        if idx.size * q >= _CLASS_FROM:
            first = edges[idx[:, :1]]
            # the class key: t, the clamp (a code of its own for an inexact node), z - e
            key = np.empty((part.size, q + 2))
            key[:, 0] = ts[part]
            rel = np.subtract(z_centers, first, out=key[:, 2:])
            key[:, 1] = np.where(_exact_difference(z_centers, first, rel).all(axis=1),
                                 idx[:, -1] - idx[:, 0], -1 - np.arange(part.size))
            _, rep, cls = np.unique(key.view(np.dtype((np.void, key.shape[1] * 8))).ravel(),
                                    return_index=True, return_inverse=True)
        xi = (edges[idx[rep]][:, None, :] - z_centers[rep][:, :, None]) / wh[part[rep], None, None]
        diffs = np.diff(_hat_cdf(xi), axis=2)[cls]                              # (n, q, width)
        out[part] = h_node * (diffs @ vals[:, :, None])[:, :, 0]
    return out


def hat_coefficients(f: GridFunction, y: float, t: float, q: int) -> np.ndarray:
    """c_i = int f(y - t u) B_i(u) du for the piecewise-linear hat basis;
    exact for step f (hat CDF evaluated at transported cell edges)."""
    if not t > 0:
        raise ValueError("t must be positive")
    if not (np.isfinite(y) and np.isfinite(t)):
        raise ValueError("y and t must be finite")
    return _hat_rows(f, np.array([y], dtype=float), np.array([t], dtype=float), q)[0]


# ---------------------------------------------------------------------------
# Carleson-box quadrature shared by every cone-type operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeQuadrature:
    """Nodes (y, t) in the boxes T(Q) = Q x [l(Q)/2, l(Q)), one box per
    dyadic interval whose triple meets the domain, levels spanning the
    t-ladder [2^-s, 2^L).  nodes_per_box is the per-axis subdivision count
    (m gives m^2 midpoint nodes, weights summing to |T(Q)| = l^2/2): the
    engines take one, and more are the tests' refinement oracle."""

    levels: tuple[int, ...]          # k values; box side = 2^-k
    box_ranges: tuple[tuple[int, int], ...]  # per level: j in [j_lo, j_hi]
    nodes_per_box: int = 1

    def __post_init__(self):
        if not self.nodes_per_box >= 1:
            raise ValueError("nodes_per_box must be >= 1")

    @staticmethod
    def for_grid(f: GridFunction, nodes_per_box: int = 1) -> "ConeQuadrature":
        levels = tuple(range(-f.level_L, f.resolution_s))
        # 3Q = [(j-1) side, (j+2) side) meets [origin, end) iff
        # origin/side - 2 < j < end/side + 1
        lo, hi = float(f.origin), float(f.domain_end)
        ranges = tuple((int(np.floor(lo / 2.0**-k)) - 1, int(np.ceil(hi / 2.0**-k))) for k in levels)
        return ConeQuadrature(levels, ranges, nodes_per_box)

    def level_nodes(self, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-box node offsets (dy from the box's left edge), t values and
        the common weight; identical for every box of the level."""
        side = 2.0**-k
        m = self.nodes_per_box
        off = (np.arange(m) + 0.5) / m
        dy = off * side
        ts = side / 2.0 * (1.0 + off)
        weight = side * (side / 2.0) / (m * m)
        return dy, ts, weight

    def n_boxes(self) -> int:
        return sum(j_hi - j_lo + 1 for j_lo, j_hi in self.box_ranges)


class SquareFunctionEngine:
    """Evaluates a node functional once per quadrature node, one level at a
    time, and aggregates it into the cone version (aperture beta, open or
    closed) and the box version sum_Q gamma_Q^2 chi_3Q; both use the
    identical node set, which makes the discrete sandwich
    G(beta=1) <= G~ <= G(beta=4, closed) exact.
    Nodes sit in flat arrays in (level, box, y offset, t) order, boxes in
    (level, box) order.
    """

    widest_interval: float | None = None  # set by intrinsic_engines in "lp" mode

    def __init__(self, f: GridFunction, quad: ConeQuadrature, level_eval):
        """level_eval(ys, ts) returns the node functional at the nodes
        (ys[n], ts[n]); it is called once per level, with the nodes in
        (box, y offset, t) order."""
        self.f = f
        self.quad = quad
        m = quad.nodes_per_box
        boxes, nodes = [np.zeros((2, 0), dtype=int)], [np.zeros((4, 0))]
        for k, (j_lo, j_hi) in zip(quad.levels, quad.box_ranges):
            side = 2.0**-k
            dy, ts, weight = quad.level_nodes(k)
            j = np.arange(j_lo, j_hi + 1)
            shape = (j.size, m, m)  # (box, y offset, t)
            ys = np.broadcast_to((j[:, None] * side + dy[None, :])[:, :, None], shape).ravel()
            ts = np.broadcast_to(ts, shape).ravel()
            vals = np.asarray(level_eval(ys, ts), dtype=float).ravel()
            boxes.append(np.stack([np.full(j.size, k), j]))
            nodes.append(np.stack([ys, ts, np.full(ys.size, weight), vals]))
        self.box_k, self.box_j = np.hstack(boxes)
        self.node_ys, self.node_ts, self.node_weights, self.node_vals = np.hstack(nodes)

    def gamma_sq(self) -> np.ndarray:
        """gamma_Q^2 of every box, in box_k/box_j order."""
        m = self.quad.nodes_per_box
        terms = self.node_vals**2 * (self.node_weights / self.node_ts**2)
        return terms.reshape(-1, m, m).sum(axis=(1, 2))

    def g_tilde(self) -> GridFunction:
        centers = self.f.cell_centers()
        side = 2.0**-self.box_k
        a = np.searchsorted(centers, (self.box_j - 1) * side, "left")
        b = np.searchsorted(centers, (self.box_j + 2) * side, "left")
        keep = b > a
        acc = interval_sums(self.f.ncells, a[keep], b[keep], self.gamma_sq()[keep])
        return self.f.with_values(np.sqrt(np.maximum(acc, 0.0)))

    def g_cone(self, beta: float, closed: bool = False) -> GridFunction:
        if not 0 < beta < np.inf:
            raise ValueError("aperture beta must be positive and finite")
        centers = self.f.cell_centers()
        ys, ts, vals = self.node_ys, self.node_ts, self.node_vals
        a = np.searchsorted(centers, ys - beta * ts, "left" if closed else "right")
        b = np.searchsorted(centers, ys + beta * ts, "right" if closed else "left")
        keep = (vals != 0.0) & (b > a)
        v, t = vals[keep], ts[keep]
        acc = interval_sums(self.f.ncells, a[keep], b[keep], v * v * self.node_weights[keep] / t**2)
        return self.f.with_values(np.sqrt(np.maximum(acc, 0.0)))


def intrinsic_engines(fs, mode: str = "lp") -> list[SquareFunctionEngine]:
    """Engines on the one-node quadratures of the grids fs, built in order
    through one evaluator whose node functional is the Hölder-class
    supremum A_alpha at ALPHA and Q: exact, by the simplex ("lp"), or the
    dictionary's certified lower bound ("dictionary").  In "lp" mode one
    vertex pool serves every build of the call, so a grid whose nodes
    repeat an earlier grid's, as refine(f) after f does, finds them at
    pooled optima; each engine's `widest_interval` is the widest certified
    node interval of its build, relative to max|c|."""
    if mode not in ("lp", "dictionary"):
        raise ValueError("mode must be 'lp' or 'dictionary'")
    cls = _holder_class(ALPHA, Q)
    pool = _VertexPool(cls) if mode == "lp" else None
    sup_rows = cls._dict_rows if pool is None else pool.sup_rows
    engines = []
    for f in fs:
        quad = ConeQuadrature.for_grid(f)
        if pool is not None:
            pool.widest = 0.0
        eng = SquareFunctionEngine(f, quad, lambda ys, ts, f=f: sup_rows(_hat_rows(f, ys, ts, Q)))
        if pool is not None:
            eng.widest_interval = pool.widest
        engines.append(eng)
    return engines


def intrinsic_engine(f: GridFunction, mode: str = "lp") -> SquareFunctionEngine:
    """The one-grid case of `intrinsic_engines`."""
    return intrinsic_engines([f], mode)[0]


def g_alpha(f: GridFunction, mode: str = "lp") -> GridFunction:
    """The intrinsic square function over the cone of aperture 1."""
    return intrinsic_engine(f, mode).g_cone(1.0)


def g_tilde(f: GridFunction, mode: str = "lp") -> GridFunction:
    """Carleson-box variant: sum over boxes of gamma_Q^2 chi_3Q."""
    return intrinsic_engine(f, mode).g_tilde()
