"""Muckenhoupt-type weight functionals on the grid: A_p characteristics,
the Fujii-Wilson A_infty functional, power-weight families with exact cell
averages, and weighted L^p norms.

The supremum in every characteristic runs over the fixed test family of
grid-aligned intervals of dyadic length (2^m cells, any position);
tests/oracles.py keeps the dense loop over that family, and over all grid
intervals, as the oracle for small N.

`ap_characteristic` evaluates (avg w)(avg sigma)^(p-1) only where the
supremum can be.  On grids with more windows of a length than one chunk
of 2^15 starts, it bounds the windows of a block of starts and skips a
block whose bound is below the best value so far; it takes the lengths
from the longest down, so that the best value is high when the short,
cheaply bounded ones come.  Every other window is computed by the same
operations as a pass over the whole length, so the result is bitwise that
of evaluating every window (tests/oracles.py keeps that loop).

Above length _SHORT_BLOCK = 64, the starts of a length are grouped in
blocks of ln // 8; the cells [lo, hi - 1 + ln) hold every window of the
block [lo, hi), and their prefix-sum difference over ln
(`operators._block_averages`, which also bounds the maximal function),
carried through the same expression and times 1 + 1e-12, bounds every
window's computed value: prefix sums of positive cells do not decrease in
floating point, subtraction, division and the product round
monotonically, and the slack covers the few ulps of `**`.  Nothing in
this needs the block to be one of a fixed partition, so from length 1024
on (blocks of at least 128 starts) each run of surviving blocks is bounded
again, by the same expression over sub-blocks of ln // 64 starts, and only
the sub-blocks whose bound is not below the best value so far are
evaluated.  The lengths up to 512 are not re-bounded: on lognormal
weights their sub-blocks break the runs into many short slices, each a
pass of its own, and cost more than they save.

Up to length 64 a block holds 64 starts, and a window of ln <= 64 cells
(65 would do) that starts in it lies in that block of 64 cells and the
next.  So the exact sum of each window is at most ln M, M the largest
cell of the two blocks.  The prefix sums come from numpy's cumsum, which
adds in order, so each is off its exact value by at most gamma_n P
(Higham, Accuracy and Stability of Numerical Algorithms, (4.4)), with
gamma_n = n u / (1 - n u), u = 2^-53 and P the exact total.  The computed total is at least
(1 - gamma_n) P, so every error is at most E = gamma_n P[n] / (1 - gamma_n)
with P[n] the computed total.  A prefix-sum difference is then at most
ln M + 2E, and after its rounding and the division by ln, the average is
at most (M + 2E/ln)(1 + u)^2.  The bound takes that base for w and for
sigma, times 1 + 16u, which covers (1 + u)^2 and the roundings of the
base's own arithmetic, raises sigma's to p - 1 and multiplies, times the
same 1 + 1e-12 for the ulps of `**` and of the product.  The 2E/ln term
is needed: on constant weights of 2^12 to 2^16 cells the prefix sums
already round by more than 1e-12 of one cell (tests/test_weights.py).

The two rounding factors, by contrast, no input reaches, so no test fails
without them; they stay because the proof needs them.  They cover a few
ulps, and they matter only for a window whose exact sum is near ln M and
whose prefix-sum error is near 2E.  But then P >= ln M, so
2E/ln >= 2 n u M, at least 2n ulps of M (n >= 128 on every grid that
prunes at a test chunk of 64 starts, n >= 2^16 at the real chunk), and
the two prefix sums' errors would have to reach their worst case
gamma_n P to within a few ulps of ln M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sharpwt.gridfn import GridFunction, cell_count, prefix_sums
from sharpwt.operators import _block_averages, _trailing_max

_FUJII_CHUNK = 1 << 17  # float64 entries per (positions x slice) chunk of chopped rows, ~1 MB
_AP_CHUNK = 1 << 15  # window starts per pass of ap_characteristic, two 256 KB buffers
_POW_SLACK = 1.0 + 1e-12  # a few ulps of `**` in a block bound
_SHORT_BLOCK = 64  # window starts per block, and the longest length, bounded by cell peaks
_REBOUND_FROM = 16  # fewest starts per sub-block when a surviving run of blocks is bounded again
_UNIT = 2.0**-53  # unit roundoff of float64
_ROUND_UP = 1.0 + 16 * _UNIT  # (1 + u)^2 of a window average, and the roundings of the bound's own base


@dataclass(frozen=True)
class PowerWeightSpec:
    """Closed-form family |x|^exponent, exponent > -1; evaluation is by
    exact cell averages, never midpoint samples, so cells containing the
    singularity carry their exact finite mass."""

    exponent: float
    center = 0.0  # constants, not fields: perfbench/checks.py reads the
    coeff = 1.0  # general form coeff |x - center|^exponent

    def __post_init__(self):
        if self.exponent <= -1:
            raise ValueError("|x|^a is locally integrable only for a > -1")

    def cell_averages(self, edges: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The exact cell averages between consecutive edges, written into
        `out` when it is given."""
        return power_cell_averages(edges, self.exponent, out=out)

    def dual(self, p: float) -> "PowerWeightSpec | None":
        """The family of w^(-1/(p-1)), when it is again locally integrable."""
        a = -self.exponent / (p - 1.0)
        return None if a <= -1 else PowerWeightSpec(a)


class Weight:
    """Strictly positive grid function; the prefix sums of w are its base's,
    and those of w^(-1/(p-1)) are formed on each request.  It holds no
    mutable state.

    For a generic weight the dual side is formed cell-wise from the stored
    step values.  A weight declared through a PowerWeightSpec keeps its
    closed form, and the dual-exponent cell averages are then exact as well.
    So the constructor checks the first, the last and the singular cell
    against the closed form's average over that cell, to 1e-12 relative:
    the same step values on a finer grid are a generic weight, and with
    the spec they raise ValueError.
    """

    def __init__(self, base: GridFunction, power: PowerWeightSpec | None = None):
        if np.any(base.values <= 0):
            raise ValueError("weights must be strictly positive")
        if power is not None:
            x0, h, n = float(base.origin), float(base.cell_width), base.ncells
            singular = min(max(int(-x0 // h), 0), n - 1)  # the cell of x = 0
            for i in sorted({0, singular, n - 1}):
                want = power.cell_averages(x0 + h * np.array([i, i + 1]))[0]
                if not abs(base.values[i] - want) <= 1e-12 * want:
                    raise ValueError(f"cell {i} holds {base.values[i]!r}, not {power} "
                                     f"whose average there is {want!r}")
        self.base = base
        self.power = power

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    @property
    def ncells(self) -> int:
        return self.base.ncells

    def mass(self, a: int, b: int) -> float:
        """w(Q) = integral of w over the cell range [a, b)."""
        return float(self.base.cell_width) * (self.base._prefix[b] - self.base._prefix[a])

    def sigma_values(self, p: float) -> np.ndarray:
        if self.power is not None:
            dual = self.power.dual(p)
            if dual is not None:
                return dual.cell_averages(self.base.cell_edges())
        return self.values ** (-1.0 / (p - 1.0))


def _dyadic_lengths(ncells: int):
    ln = 1
    while ln <= ncells:
        yield ln
        ln *= 2


def ap_characteristic(w: Weight, p: float, sigma: np.ndarray | None = None) -> float:
    """sup over the test family of (avg_Q w) (avg_Q w^(-1/(p-1)))^(p-1).

    `sigma`, when given, is the cell values of w^(-1/(p-1)) that the caller
    already holds (say a power family's dual closed form), one positive
    finite value per cell; without it they come from `w.sigma_values(p)`.

    Lengths whose windows fit in one chunk of starts, where the bookkeeping
    would cost more than it saves, are evaluated at every position.  The
    others run from the longest down, so that the best value is high when
    the short lengths come.  Above _SHORT_BLOCK, a length first evaluates
    its block of highest bound; up to it, blocks are bounded by their
    largest cells.  Each then skips every block whose bound lies below the
    best value so far, and evaluates each run of consecutive surviving
    blocks as one slice, or, where its blocks hold 8 _REBOUND_FROM starts
    or more, bounds the run again by blocks of an eighth the size and
    evaluates the runs of those that survive (see the module docstring).
    """
    if not 1 < p < np.inf:
        raise ValueError("A_p requires a finite p > 1")
    pw = w.base._prefix
    if sigma is None:
        sigma = w.sigma_values(p)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (w.ncells,):
            raise ValueError(f"sigma needs {w.ncells} cell values, got shape {sigma.shape}")
        if not (sigma.min() > 0 and sigma.max() < np.inf):  # both are NaN if a value is
            raise ValueError("sigma values must be positive and finite")
    ps = prefix_sums(sigma)
    n = w.ncells
    e = p - 1.0
    buf_w, buf_s = np.empty(min(n, _AP_CHUNK)), np.empty(min(n, _AP_CHUNK))

    def window_max(ln: int, a0: int, a1: int):
        """max of the expression over the windows [a, a + ln), a0 <= a < a1,
        each evaluated as a whole-length pass would; chunks of starts keep
        the passes in cache, and np.maximum keeps a NaN."""
        m = -np.inf
        for c0 in range(a0, a1, _AP_CHUNK):
            c1 = min(c0 + _AP_CHUNK, a1)
            avg_w = np.subtract(pw[c0 + ln : c1 + ln], pw[c0:c1], out=buf_w[: c1 - c0])
            avg_w /= ln
            avg_s = np.subtract(ps[c0 + ln : c1 + ln], ps[c0:c1], out=buf_s[: c1 - c0])
            avg_s /= ln
            avg_s **= e
            avg_w *= avg_s
            m = np.maximum(m, np.max(avg_w))
        return m

    def block_bound(ln: int, size: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Per block of `size` starts of [lo, hi), a bound on the value of
        each of its windows (see the module docstring)."""
        return _block_averages(pw, ln, size, lo, hi) * _block_averages(ps, ln, size, lo, hi) ** e * _POW_SLACK

    def surviving_runs(ln: int, size: int, bound: np.ndarray, m, lo: int = 0) -> list[tuple[int, int]]:
        """The starts [a0, a1) of each run of consecutive blocks of `size`
        starts from lo whose bound is not below the best value so far (a
        NaN bound keeps its block)."""
        keep = ~(bound < max(best, m))
        flips = np.flatnonzero(np.diff(keep, prepend=False, append=False)).tolist()
        return [(lo + k0 * size, min(lo + k1 * size, n - ln + 1)) for k0, k1 in zip(flips[::2], flips[1::2])]

    def surviving_max(ln: int, size: int, bound: np.ndarray, m, rebound: bool = False):
        """m raised by the windows of every surviving run of blocks.  With
        `rebound`, a run is bounded again by blocks of size // 8 starts,
        and only the runs of those that survive are evaluated."""
        for a0, a1 in surviving_runs(ln, size, bound, m):
            runs = [(a0, a1)]
            if rebound:
                runs = surviving_runs(ln, size // 8, block_bound(ln, size // 8, a0, a1), m, a0)
            for b0, b1 in runs:
                # np.maximum keeps a NaN, so a length with a NaN window counts
                # for nothing, as np.max and max() make it in the dense loop
                m = np.maximum(m, window_max(ln, b0, b1))
        return m

    if n > _AP_CHUNK:  # the lengths up to _SHORT_BLOCK are bounded by their largest cells
        peaks = _pair_max(w.values), _pair_max(sigma)
        errs = _cumsum_error(pw), _cumsum_error(ps)
    best = 1.0
    for ln in reversed(list(_dyadic_lengths(n))):
        if n - ln + 1 <= _AP_CHUNK:
            best = max(best, float(window_max(ln, 0, n - ln + 1)))
        elif ln > _SHORT_BLOCK:
            size = ln // 8
            bound = block_bound(ln, size)
            top = int(np.argmax(bound))
            m = window_max(ln, top * size, min((top + 1) * size, n - ln + 1))
            bound[top] = -np.inf  # its windows are in m
            best = max(best, float(surviving_max(ln, size, bound, m, rebound=size // 8 >= _REBOUND_FROM)))
        else:
            bw, bs = ((peak + 2.0 * err / ln) * _ROUND_UP for peak, err in zip(peaks, errs))
            bound = (bw * bs**e * _POW_SLACK)[: -(-(n - ln + 1) // _SHORT_BLOCK)]
            best = max(best, float(surviving_max(ln, _SHORT_BLOCK, bound, -np.inf)))
    return best


def _pair_max(values: np.ndarray) -> np.ndarray:
    """Per block of _SHORT_BLOCK cells, the largest cell of it and of the
    block after it: every cell of a window of at most _SHORT_BLOCK + 1
    cells that starts in the block."""
    top = np.maximum.reduceat(values, np.arange(0, values.size, _SHORT_BLOCK))
    top[:-1] = np.maximum(top[:-1], top[1:])
    return top


def _cumsum_error(prefix: np.ndarray) -> float:
    """E = gamma_n P[n] / (1 - gamma_n), gamma_n = n u / (1 - n u): a bound on
    the rounding error of every sequential prefix sum of n positive cells."""
    n = prefix.size - 1
    gamma = n * _UNIT / (1.0 - n * _UNIT)
    return gamma * float(prefix[n]) / (1.0 - gamma)


def ainfty_fujii(w: Weight) -> float:
    """Fujii-Wilson functional: sup_Q (1/w(Q)) int_Q M(w chi_Q), with Q over
    the test family and M the grid maximal function of `operators.maximal`.

    Only a slice around Q = [a, a + |Q|) matters.  For x in Q, a test window
    W containing x with |W| >= |Q| has avg_W(w chi_Q) <= w(Q)/|Q|, and Q
    itself is a test window containing x, so only windows of length
    m <= |Q| count.  These lie in the slice [a - |Q| + 1, a + 2|Q| - 1).
    Zero-padding that slice past the domain changes nothing: a window that
    sticks out of the domain, shifted back inside, still contains x and
    holds at least as much of w chi_Q >= 0.  Both comparisons also hold in
    floating point, because the prefix sums of w chi_Q are monotone.

    So for each length, every position is one row of chopped slices; the
    window sums of each m come from one row-wise prefix sum, and the max
    over the windows containing each cell from one row-wise trailing max.
    """
    v = w.values
    h = float(w.base.cell_width)
    best = 0.0
    for ln in _dyadic_lengths(v.size):
        positions = np.lib.stride_tricks.sliding_window_view(v, ln)  # row a is w on [a, a + ln)
        width = 3 * ln - 2  # Q sits at columns ln - 1 .. 2 ln - 2 of the slice
        chunk = max(1, _FUJII_CHUNK // (width + 1))
        for lo in range(0, positions.shape[0], chunk):
            part = positions[lo : lo + chunk]
            rows = np.zeros((part.shape[0], width))
            rows[:, ln - 1 : 2 * ln - 1] = part
            prefix = np.concatenate([np.zeros((part.shape[0], 1)), np.cumsum(rows, axis=1)], axis=1)
            mf = part.copy()  # M(w chi_Q) on Q; the m = 1 windows give w itself
            m = 2
            while m <= ln:
                # the windows of length m meeting Q start at columns ln - m .. 2 ln - 2
                sums = (prefix[:, ln : 2 * ln - 1 + m] - prefix[:, ln - m : 2 * ln - 1]) / m
                np.maximum(mf, _trailing_max(sums, np.empty_like(sums), m)[:, m - 1 :], out=mf)
                m *= 2
            a = np.arange(lo, lo + part.shape[0])
            ratio = h * mf.sum(axis=1) / w.mass(a, a + ln)
            best = max(best, float(np.max(ratio)))
    return best


def weighted_lp_norm(f: GridFunction, w: Weight, p: float) -> float:
    """(sum |f_i|^p w_i h)^(1/p) over the common grid."""
    if not 1 <= p < np.inf:
        raise ValueError("p must be finite and >= 1")
    base = w.base
    if (
        f.level_L != base.level_L
        or f.resolution_s != base.resolution_s
        or f.origin != base.origin
    ):
        raise ValueError("function and weight live on different grids")
    h = float(f.cell_width)
    return float(np.sum(np.abs(f.values) ** p * w.values) * h) ** (1.0 / p)


def power_cell_averages(edges: np.ndarray, a: float, center: float = 0.0,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Exact cell averages of |x - center|^a (a > -1) between consecutive edges.

    Cells straddling the singularity get the exact finite average, so power
    weights stay resolution-honest near the origin.  `out`, one float per
    cell, receives the averages.  At center 0 the edges are u itself.
    np.copysign gives an edge u = -0.0 the term -0.0 where negating at
    u < 0 gave +0.0; between increasing edges that moves no average, since
    the terms beside it are at most -0.0 on its left and at least +0.0 on
    its right, and a difference with either zero is then the same."""
    if a <= -1:
        raise ValueError("|x|^a is locally integrable only for a > -1")
    edges = np.asarray(edges, dtype=float)
    u = edges - center if center else edges
    anti = np.abs(u)
    anti **= a + 1.0
    np.copysign(anti, u, out=anti)  # sign(u) |u|^(a+1)
    anti /= a + 1.0
    avg = np.subtract(anti[1:], anti[:-1], out=out)
    avg /= np.subtract(edges[1:], edges[:-1], out=anti[:-1])
    return avg


def power_weight(resolution_s: int, a: float) -> Weight:
    """Weight on [0, 1) with exact cell averages of |x|^a."""
    spec = PowerWeightSpec(a)
    probe = GridFunction(0, resolution_s, np.zeros(cell_count(0, resolution_s)))
    return Weight(probe.with_values(spec.cell_averages(probe.cell_edges())), power=spec)
