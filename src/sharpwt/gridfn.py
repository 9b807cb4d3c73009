"""Piecewise-constant functions on uniform grids over a dyadic interval,
with exact rearrangement, weighted median, local mean oscillation and the
dyadic local sharp maximal function.

Conventions: cells are half-open [x_i, x_i + h) of width h = 2^-s, the grid
origin is an integer multiple of h, and every function is extended by zero
outside its domain.  All measure-threshold comparisons are done in integer
cell counts, so strict-vs-non-strict decisions in rearrangements are exact,
never floating point: the oscillation window count on m cells at a rational
lambda is the integer m - floor(lambda m) = ceil((1 - lambda) m).  A
subinterval is addressed by its cell index range (a, b), or None for the
whole domain.

`interval_sums` is the one difference array: the square-function engine,
the decomposition's sums over stopping cubes and its verifier all build
their sums of weighted indicators with it, so the order of the additions,
and with it the rounding, is decided in one place.

`SortedBlocks` holds, per dyadic block size of the grid, that size's
blocks sorted once, and reads the median and the oscillation coefficient of
every block of a level as one vector; the stopping-time decomposition,
M^{#,d}_{1/4} and the scans read it.  `median` and `local_osc` compute the same
numbers for one cube per call and stay as the public per-call oracle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property

import numpy as np


def cell_count(level_L: int, resolution_s: int) -> int:
    """2^(L+s), the number of cells of a grid; the one check that the
    resolution is not coarser than the domain."""
    if resolution_s < -level_L:
        raise ValueError(f"resolution {resolution_s} is coarser than the domain of level {level_L}")
    return 2 ** (level_L + resolution_s)


def prefix_sums(values: np.ndarray, dtype=float) -> np.ndarray:
    """0 followed by the running sums of `values`, added in order and
    written in place into one array of `dtype`."""
    prefix = np.empty(values.size + 1, dtype=dtype)
    prefix[0] = 0
    np.cumsum(values, out=prefix[1:])
    return prefix


class GridFunction:
    """Step function on [origin, origin + 2^L) with 2^(L+s) cells of width 2^-s."""

    def __init__(self, level_L: int, resolution_s: int, values, origin=0):
        ncells = cell_count(level_L, resolution_s)
        self.level_L = int(level_L)
        self.resolution_s = int(resolution_s)
        self.origin = Fraction(origin)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (ncells,):
            raise ValueError(f"expected {ncells} cell values, got {vals.shape}")
        if (self.origin / self.cell_width).denominator != 1:
            raise ValueError("origin must be an integer multiple of the cell width")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        self.values = vals
        self.values.setflags(write=False)

    # ---- geometry ----

    @property
    def ncells(self) -> int:
        return self.values.size

    @property
    def cell_width(self) -> Fraction:
        s = self.resolution_s
        return Fraction(1, 2**s) if s >= 0 else Fraction(2**-s)

    @property
    def domain_length(self) -> Fraction:
        L = self.level_L
        return Fraction(2**L) if L >= 0 else Fraction(1, 2**-L)

    @property
    def domain_end(self) -> Fraction:
        return self.origin + self.domain_length

    def cell_edges(self) -> np.ndarray:
        h = float(self.cell_width)
        return float(self.origin) + h * np.arange(self.ncells + 1)

    def cell_centers(self) -> np.ndarray:
        h = float(self.cell_width)
        return float(self.origin) + h * (np.arange(self.ncells) + 0.5)

    def cell_range(self, cube) -> tuple[int, int]:
        """Cell index range [a, b) of `cube`: an (a, b) index pair, or None
        for the whole domain."""
        if cube is None:
            return 0, self.ncells
        if not (isinstance(cube, tuple) and len(cube) == 2 and all(isinstance(v, (int, np.integer)) for v in cube)):
            raise TypeError(f"cannot interpret {cube!r} as a cell range")
        a, b = int(cube[0]), int(cube[1])
        if not 0 <= a < b <= self.ncells:
            raise ValueError(f"cell range ({a}, {b}) outside domain")
        return a, b

    # ---- integrals ----

    # prefix sums of f and |f|, and counts of nonzero cells, built on first
    # use: the integral over the cells [a, b) is h * (prefix[b] - prefix[a])

    @cached_property
    def _prefix(self) -> np.ndarray:
        return prefix_sums(self.values)

    @cached_property
    def _prefix_abs(self) -> np.ndarray:
        return prefix_sums(np.abs(self.values))

    @cached_property
    def _nonzero_count(self) -> np.ndarray:
        return prefix_sums(self.values != 0, np.intp)

    def integral_abs(self, a: int, b: int) -> float:
        return float(self.cell_width) * (self._prefix_abs[b] - self._prefix_abs[a])

    # ---- serialization ----

    def to_json(self) -> dict:
        return {
            "level_L": self.level_L,
            "resolution_s": self.resolution_s,
            "origin": str(self.origin),
            "values": self.values.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "GridFunction":
        return GridFunction(
            obj["level_L"], obj["resolution_s"], obj["values"], Fraction(obj["origin"])
        )

    @staticmethod
    def load(path) -> "GridFunction":
        with open(path) as fh:
            return GridFunction.from_json(json.load(fh))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.level_L, self.resolution_s, values, self.origin)

    def to_csv_rows(self):
        h = float(self.cell_width)
        x0 = float(self.origin)
        for i, v in enumerate(self.values):
            yield x0 + (i + 0.5) * h, float(v)


def interval_sums(ncells: int, a, b, c) -> np.ndarray:
    """sum_i c[i] chi_[a[i], b[i]) per cell, for 0 <= a[i] <= b[i] <= ncells:
    +c[i] at a[i] and -c[i] at b[i] in the order of i, then one running sum,
    so the rounding is that of a loop over i."""
    c = np.asarray(c, dtype=float)
    acc = np.zeros(ncells + 1)
    np.add.at(acc, np.stack([a, b], axis=1).astype(np.intp).ravel(),
              np.stack([c, -c], axis=1).ravel())
    return np.cumsum(acc[:-1])


def _dilate_averages_abs(f: GridFunction, a, n, gamma: int) -> np.ndarray:
    """avg_{gamma Q} |f| of the cubes Q = [a, a + n) (cell indices, arrays
    or ints) for an odd gamma: gamma Q is then the whole cells
    [a - (gamma - 1) n / 2, a + (gamma + 1) n / 2), clipped to the grid, and
    the integral is divided by the full |gamma Q|."""
    lo = np.maximum(a - (gamma - 1) // 2 * n, 0)
    hi = np.minimum(a + (gamma + 1) // 2 * n, f.ncells)
    return f.integral_abs(lo, hi) / (gamma * n * float(f.cell_width))


def rearrangement_value(f: GridFunction, cube, t) -> float:
    """(f chi_Q)*(t) = inf{tau >= 0 : |{x in Q : |f(x)| > tau}| <= t}."""
    a, b = f.cell_range(cube)
    m = b - a
    tf = Fraction(t)
    if tf <= 0 or tf > (b - a) * f.cell_width:
        raise ValueError(f"t={t} outside (0, |Q|]")
    allowed = int(tf / f.cell_width)  # floor of a nonnegative Fraction
    if allowed >= m:
        return 0.0
    d = np.sort(np.abs(f.values[a:b]))[::-1]
    return float(d[allowed])


def median(f: GridFunction, cube=None) -> float:
    """Weighted median: a cell value m on Q with
    max(|{f > m}|, |{f < m}|) <= |Q|/2.

    The valid values are the lower and upper mid order statistics; we return
    the one of smaller absolute value (ties toward the lower).  This choice
    is deterministic and always satisfies |m| <= (f chi_Q)*(|Q|/2), which
    the one-sided tie-breaks do not.
    """
    a, b = f.cell_range(cube)
    m = b - a
    v = np.sort(f.values[a:b])
    lo, hi = float(v[(m + 1) // 2 - 1]), float(v[m // 2])
    return lo if abs(lo) <= abs(hi) else hi


def _osc_sorted(v: np.ndarray, k_min: int) -> float:
    # minimal half-width window over sorted values capturing >= k_min cells
    if k_min <= 1:
        return 0.0
    return float(np.min(v[k_min - 1 :] - v[: v.size - k_min + 1]) / 2.0)


def window_count(lam: Fraction, m: int) -> int:
    """ceil((1 - lam) * m) for a Fraction lam in (0, 1), in integers."""
    return m - (lam.numerator * m) // lam.denominator


def local_osc(f: GridFunction, cube, lam) -> float:
    """Local mean oscillation: inf_c ((f - c) chi_Q)*(lam |Q|).

    For a step function this equals half the width of the shortest value
    window capturing at least (1 - lam)|Q| of the mass.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    a, b = f.cell_range(cube)
    v = np.sort(f.values[a:b])
    return _osc_sorted(v, window_count(lam, b - a))


class SortedBlocks:
    """Order statistics of the aligned dyadic blocks of f's grid.

    Level `size` is f's values cut into blocks of `size` cells, each block
    sorted once, built on first use.  The median and the oscillation
    coefficient of every block of a level come out as one vector, by the
    same index arithmetic, subtraction and `min` as `median` and
    `local_osc`, so every value has their bits.  One table serves one call;
    it is never shared between calls.
    """

    def __init__(self, f: GridFunction):
        self._values = f.values
        self._levels: dict[int, np.ndarray] = {}

    def _sorted(self, size: int) -> np.ndarray:
        blocks = self._levels.get(size)
        if blocks is None:
            blocks = np.sort(self._values.reshape(-1, size), axis=1)
            self._levels[size] = blocks
        return blocks

    def medians(self, size: int) -> np.ndarray:
        """`median` of every block of `size` cells, in block order."""
        blocks = self._sorted(size)
        lo, hi = blocks[:, (size + 1) // 2 - 1], blocks[:, size // 2]
        return np.where(np.abs(lo) <= np.abs(hi), lo, hi)

    def osc(self, size: int, lam: Fraction) -> np.ndarray:
        """`local_osc` at lam of every block of `size` cells, in block order."""
        k = window_count(lam, size)
        blocks = self._sorted(size)
        return (blocks[:, k - 1 :] - blocks[:, : size - k + 1]).min(axis=1) / 2.0


def local_sharp_max_dyadic(f: GridFunction) -> GridFunction:
    """M^{#,d}_{1/4} f: per cell, the max of local_osc at lambda = 1/4 over
    the dyadic cubes of f's grid containing the cell."""
    table = SortedBlocks(f)
    out = np.zeros(f.ncells)
    size = 2
    while size <= f.ncells:
        np.maximum(out, np.repeat(table.osc(size, Fraction(1, 4)), size), out=out)
        size *= 2
    return f.with_values(out)
