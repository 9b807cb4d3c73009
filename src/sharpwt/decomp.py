"""Stopping-time decomposition of a grid function by local mean oscillation,
its machine verifier, and the sparse averaging operator built on the
stopping cubes.

Construction per parent cube P: subtract the median, take the rearrangement
threshold tau at lambda|P|, and select the maximal proper dyadic subcubes
carrying the exceptional set {|f - m| > tau} with density > 1/2.  For step
functions the exceptional set is a union of cells, so it is covered by the
selected cubes exactly; properties (ii)-(iv) hold by construction and the
pointwise domination (i) with constant 4 is checked by the verifier rather
than assumed.

The root is the whole grid and lambda is LAMBDA_N = 1/8, the paper's
lambda_n = 2^-(n+2) in dimension 1.  Every median and oscillation
coefficient the construction needs is a dyadic block of the grid, so
`decompose` reads them from one `gridfn.SortedBlocks` table: each block
size sorted once, one vector per size.  A child's median is read only
once the child is processed as a parent with floor(lambda|P|) >= 1; a
smaller child can have no children, and its median would go unused.  The walk that selects a parent's
children reads the mask's prefix counts as Python ints.  `gridfn.median`
and `gridfn.local_osc` give the same numbers one cube per call and stay as
the public per-call oracle.  The sums over stopping cubes, A_gamma and the
verifier's sum of oscillation coefficients, go through
`gridfn.interval_sums`.  A_gamma is taken at GAMMA = 45, the dilation of
scans 5.3 and 5.9; as 45 is odd, each 45Q is a range of whole cells.
`Decomposition.to_json` alone in the package knows the dump format: `verify`
rebuilds a dump from its `grid_function` and never reads the dump's tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from sharpwt.gridfn import (GridFunction, SortedBlocks, _dilate_averages_abs, interval_sums,
                            local_sharp_max_dyadic, prefix_sums)

# lambda_n = 1/2^(n+2) in dimension n = 1, the lambda of every decomposition
LAMBDA_N = Fraction(1, 8)
# the dilation of the stopping cubes in A_gamma
GAMMA = 45


@dataclass
class StopCube:
    """One stopping cube: cell range, oscillation coefficient on its dyadic
    parent, and the measure of its sparse set E = Q \\ Omega_{k+1}."""

    a: int
    b: int
    osc_coeff: float
    parent_ref: int  # index into the previous generation; generation 0's is 0, the root's
    e_cells: int = field(default=0, init=False)  # filled in by `decompose` once the tree is known

    @property
    def ncells(self) -> int:
        return self.b - self.a


@dataclass
class Decomposition:
    """The stopping cubes of f on its whole grid at LAMBDA_N."""

    f: GridFunction
    root_median: float
    generations: list[list[StopCube]]

    def all_cubes(self) -> list[StopCube]:
        """Every stopping cube, generation by generation."""
        return [sc for gen in self.generations for sc in gen]

    def to_json(self) -> dict:
        h = self.f.cell_width
        gens = []
        for gen in self.generations:
            gens.append(
                [
                    {
                        "cells": [sc.a, sc.b],
                        "start": str(self.f.origin + sc.a * h),
                        "width": str((sc.b - sc.a) * h),
                        "osc_coeff": sc.osc_coeff,
                        "e_measure": float(sc.e_cells * h),
                        "parent": sc.parent_ref,
                    }
                    for sc in gen
                ]
            )
        return {
            "grid_function": self.f.to_json(),
            "root_cells": [0, self.f.ncells],
            "root_median": self.root_median,
            "lambda": str(LAMBDA_N),
            "generations": gens,
        }


def _select_children(mask_prefix: list[int], pa: int, pb: int) -> list[tuple[int, int]]:
    """Maximal proper dyadic subranges of [pa, pb) where the masked set has
    density > 1/2; `mask_prefix` is the mask's prefix counts as a list of
    Python ints, so the walk's subtractions stay off numpy scalars."""
    out = []
    if pb - pa < 2:
        return out
    mid = (pa + pb) // 2
    stack = [(pa, mid), (mid, pb)]
    while stack:
        a, b = stack.pop()
        cnt = mask_prefix[b] - mask_prefix[a]
        if 2 * cnt > b - a:
            out.append((a, b))
        elif b - a > 1 and cnt > 0:
            m = (a + b) // 2
            stack.append((a, m))
            stack.append((m, b))
    out.sort()
    return out


def decompose(f: GridFunction) -> Decomposition:
    """Generations of stopping cubes for f on its whole grid at LAMBDA_N,
    with oscillation coefficients taken on the dyadic parent of each
    stopping cube."""
    lam = LAMBDA_N
    table = SortedBlocks(f)
    medians: dict[int, list[float]] = {}
    oscs: dict[int, list[float]] = {}

    def median_of(a, size):
        if size not in medians:
            medians[size] = table.medians(size).tolist()
        return medians[size][a // size]

    def osc_of(a, size):
        if size not in oscs:
            oscs[size] = table.osc(size, lam).tolist()
        return oscs[size][a // size]

    root_median = median_of(0, f.ncells)
    generations: list[list[StopCube]] = []
    current = [(0, f.ncells)]
    while True:
        next_gen: list[StopCube] = []
        next_parents = []
        for parent_idx, (pa, pb) in enumerate(current):
            m = pb - pa
            # floor(lam m): cells permitted above the threshold; with none,
            # tau is the largest |f - m_P| and no cell lies above it
            allowed = (lam.numerator * m) // lam.denominator
            if allowed == 0:
                continue
            g = np.abs(f.values[pa:pb] - median_of(pa, m))
            tau = float(np.sort(g)[::-1][allowed])  # allowed < m, as lam < 1
            mask = g > tau
            if not mask.any():
                continue
            for a, b in _select_children(prefix_sums(mask, np.intp).tolist(), 0, m):
                a, b = a + pa, b + pa
                next_gen.append(StopCube(a=a, b=b, osc_coeff=osc_of(a, 2 * (b - a)),
                                         parent_ref=parent_idx))
                next_parents.append((a, b))
        if not next_gen:
            break
        generations.append(next_gen)
        current = next_parents
    # sparse sets: children of other parents cannot enter Q_j^k, so
    # |E_j^k| = |Q_j^k| - sum of own children
    for k, gen in enumerate(generations):
        child_cells = [0] * len(gen)
        if k + 1 < len(generations):
            for sc in generations[k + 1]:
                child_cells[sc.parent_ref] += sc.ncells
        for j, sc in enumerate(gen):
            sc.e_cells = sc.ncells - child_cells[j]
    return Decomposition(f, root_median, generations)


# (i) is checked in floating point, and its right side's sums err by a few
# ulps: far below 1e-9 for the values, at most about 10^4, of every
# function the callers decompose
_SLACK_TOL = 1e-9


def verify_decomposition(f: GridFunction, d: Decomposition) -> dict:
    """Check properties (ii)-(iv) exactly and the pointwise bound (i) with
    constant 4 against the dyadic sharp maximal function at lambda = 1/4,
    up to _SLACK_TOL.

    Returns a report with per-property pass flags and worst observed slack;
    failures are report entries, not exceptions.
    """
    report: dict = {"passed": True}

    # (ii) pairwise disjoint within each generation
    ok, worst = True, 0
    for gen in d.generations:
        spans = sorted((sc.a, sc.b) for sc in gen)
        for (xa, xb), (ya, yb) in zip(spans, spans[1:]):
            overlap = min(xb, yb) - max(xa, ya)
            if overlap > 0:
                ok, worst = False, max(worst, overlap)
    report["ii_disjoint"] = {"passed": ok, "worst_overlap_cells": worst}

    # (iii) nesting of the level sets Omega_k
    ok = True
    for k in range(1, len(d.generations)):
        starts = np.array([sc.a for sc in d.generations[k - 1]])
        ends = np.array([sc.b for sc in d.generations[k - 1]])
        order = np.argsort(starts)
        starts, ends = starts[order], ends[order]
        for sc in d.generations[k]:
            i = int(np.searchsorted(starts, sc.a, side="right")) - 1
            if i < 0 or not (starts[i] <= sc.a and sc.b <= ends[i]):
                ok = False
    report["iii_nested"] = {"passed": ok}

    # (iv) |Omega_{k+1} cap Q_j^k| <= |Q_j^k| / 2, via exact interval
    # overlap; the sparse sets E_j^k = Q_j^k - Omega_{k+1}: stored measures
    # consistent, pairwise disjoint, >= half.  One overlap per cube serves both.
    ok_iv, ok_e, worst_frac = True, True, 0.0
    for k, gen in enumerate(d.generations):
        nxt = d.generations[k + 1] if k + 1 < len(d.generations) else []
        for sc in gen:
            cap = sum(max(0, min(sc.b, c.b) - max(sc.a, c.a)) for c in nxt)
            worst_frac = max(worst_frac, cap / sc.ncells)
            if 2 * cap > sc.ncells:
                ok_iv = False
            if sc.e_cells != sc.ncells - cap or 2 * sc.e_cells < sc.ncells:
                ok_e = False
    report["iv_half_measure"] = {"passed": ok_iv, "worst_fraction": worst_frac}
    report["sparse_sets"] = {"passed": ok_e}

    # (i) pointwise domination with constant 4
    msharp = local_sharp_max_dyadic(f)
    cubes = d.all_cubes()
    coeff = interval_sums(f.ncells, [sc.a for sc in cubes], [sc.b for sc in cubes],
                          [sc.osc_coeff for sc in cubes])
    lhs = np.abs(f.values - d.root_median)
    rhs = 4.0 * msharp.values + 4.0 * coeff
    slack = float(np.max(lhs - rhs))
    report["i_pointwise"] = {"passed": slack <= _SLACK_TOL, "worst_slack": slack}

    report["passed"] = all(
        report[k]["passed"]
        for k in ("ii_disjoint", "iii_nested", "iv_half_measure", "sparse_sets", "i_pointwise")
    )
    report["n_generations"] = len(d.generations)
    report["n_cubes"] = sum(len(g) for g in d.generations)
    return report


def a_gamma(f: GridFunction, d: Decomposition) -> GridFunction:
    """x -> sum_{k,j} (avg_{45 Q_j^k} |f|)^2 chi_{Q_j^k}(x).

    Averages divide by the full |45 Q| with f extended by zero outside
    its domain (no renormalization on partial overlap).
    """
    cubes = d.all_cubes()
    a = np.array([sc.a for sc in cubes], dtype=np.intp)
    b = np.array([sc.b for sc in cubes], dtype=np.intp)
    avg = _dilate_averages_abs(f, a, b - a, GAMMA)
    acc = interval_sums(f.ncells, a, b, avg * avg)
    # cancellation in the running sum can leave -1e-18 where the exact
    # value is zero; the operator is a sum of squares
    return f.with_values(np.maximum(acc, 0.0))
