"""The sorted-blocks table against its per-call oracles: per-level medians
and oscillation coefficients against `median` / `local_osc`, the integer
window count against the Fraction one, `decompose` against the per-call
construction byte for byte, M^{#,d} against per-cube enumeration, and the
scan-5.2 value against its per-cube form, at L = 1 and a negative origin."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decompose_per_call, local_sharp_ratio_per_cube, window_count_fraction
from sharpwt.decomp import decompose, verify_decomposition
from sharpwt.gridfn import (
    GridFunction,
    SortedBlocks,
    local_osc,
    local_sharp_max_dyadic,
    median,
    window_count,
)
from sharpwt.harness import _local_sharp_ratio

LAMS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(7, 8))


def bits(xs) -> bytes:
    return np.asarray(xs, dtype=float).tobytes()


def singular_values(L, s, origin, c, a):
    """Exact cell averages of |x - c|^a, a in (-1, 0)."""
    h = 2.0**-s
    edges = float(origin) + h * np.arange(2 ** (L + s) + 1)
    u = edges - c
    anti = np.sign(u) * np.abs(u) ** (a + 1.0) / (a + 1.0)
    return np.diff(anti) / h


@st.composite
def grids(draw):
    """Grid functions at s <= 8, L in {-1, 0, 1}, origin <= 0, with
    standard normal, tie-heavy (rounded) or singular values."""
    L = draw(st.sampled_from((-1, 0, 1)))
    s = draw(st.integers(max(0, -L), 8))
    n = 2 ** (L + s)
    origin = -draw(st.integers(0, 3 * n)) * Fraction(1, 2**s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("normal", "tied", "singular")))
    if kind == "singular":
        c = float(origin) + float(rng.uniform(0, 2.0**L))
        values = singular_values(L, s, origin, c, float(rng.uniform(-0.9, -0.2)))
    else:
        values = rng.standard_normal(n) * draw(st.sampled_from((0.5, 3.0, 1e3)))
        if kind == "tied":
            values = np.round(values)
    return GridFunction(L, s, values, origin)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_table_levels_equal_per_call_median_and_osc(f):
    table = SortedBlocks(f)
    size = 1
    while size <= f.ncells:
        cubes = [(a, a + size) for a in range(0, f.ncells, size)]
        assert bits(table.medians(size)) == bits([median(f, q) for q in cubes])
        for lam in LAMS:
            assert bits(table.osc(size, lam)) == bits([local_osc(f, q, lam) for q in cubes])
        size *= 2


def test_integer_window_count_is_the_fraction_ceiling():
    for lam in LAMS:
        assert [window_count(lam, m) for m in range(1, 2**12 + 1)] == [
            window_count_fraction(lam, m) for m in range(1, 2**12 + 1)
        ]


def tree_bytes(d) -> str:
    return json.dumps(d.to_json(), sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_decompose_matches_per_call_construction(f):
    # a parent of fewer than 8 cells, floor(|P| / 8) = 0, is skipped before
    # its threshold is taken; the oracle takes it and selects nothing
    d = decompose(f)
    assert tree_bytes(d) == tree_bytes(decompose_per_call(f))
    assert verify_decomposition(f, d)["passed"]


@pytest.mark.parametrize("kind", ["normal", "tied", "singular"])
def test_decompose_matches_per_call_construction_at_s10(kind):
    rng = np.random.default_rng(["normal", "tied", "singular"].index(kind))
    for trial in range(20):
        if kind == "singular":
            values = singular_values(0, 10, 0, float(rng.uniform()), float(rng.uniform(-0.9, -0.2)))
            values = values + 0.1 * rng.standard_normal(1024)
        else:
            values = rng.standard_normal(1024)
            if kind == "tied":
                values = np.round(2 * values)
        f = GridFunction(0, 10, values)
        d = decompose(f)
        assert tree_bytes(d) == tree_bytes(decompose_per_call(f))
        assert verify_decomposition(f, d)["passed"]


@settings(max_examples=100, deadline=None)
@given(grids())
def test_sharp_max_matches_per_cube_enumeration(f):
    want = np.zeros(f.ncells)
    size = 2
    while size <= f.ncells:
        for a in range(0, f.ncells, size):
            want[a : a + size] = np.maximum(want[a : a + size], local_osc(f, (a, a + size), Fraction(1, 4)))
        size *= 2
    assert bits(local_sharp_max_dyadic(f).values) == bits(want)


class FixedGTilde:
    """Stands in for an engine whose G~ is given."""

    def __init__(self, gt: GridFunction):
        self.gt = gt

    def g_tilde(self) -> GridFunction:
        return self.gt


@pytest.mark.parametrize("L,s,origin", [(0, 6, 0), (0, 7, 0), (1, 6, -1), (1, 5, -1), (2, 4, -3), (1, 3, 0)])
def test_local_sharp_ratio_matches_per_cube_oracle(L, s, origin):
    # |g| ramps over three decades, so the largest ratio sits on a small
    # cube whose 15Q does not cover the domain and its placement matters
    rng = np.random.default_rng([L, s])
    n = 2 ** (L + s)
    for trial in range(6):
        ramp = np.geomspace(1e-3, 1.0, n)[:: 1 if trial % 2 else -1]
        g = GridFunction(L, s, rng.standard_normal(n) * ramp, origin)
        gt = g.with_values(np.abs(rng.standard_normal(n)))
        want = local_sharp_ratio_per_cube(g, gt.values**2)
        assert bits([_local_sharp_ratio(g, FixedGTilde(gt))]) == bits([want])
