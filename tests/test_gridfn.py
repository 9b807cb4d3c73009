"""Oracle tests for the oscillation calculus: rearrangement, weighted
median, local mean oscillation and the dyadic sharp maximal function."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpwt.dyadic import DyadicCube
from sharpwt.gridfn import (
    GridFunction,
    cell_count,
    interval_sums,
    local_osc,
    local_sharp_max_dyadic,
    median,
    rearrangement_value,
)

RNG = np.random.default_rng(2024)


def rearrangement_oracle(values, h, t):
    """inf over candidate thresholds tau in {|v|} u {0} of the defining set."""
    cand = sorted(set(np.abs(values)) | {0.0})
    best = None
    for tau in cand:
        if np.sum(np.abs(values) > tau) * h <= t + 1e-15:
            best = tau if best is None else min(best, tau)
    return best


def osc_oracle(values, h, lam):
    """Brute force over centers c in all midpoints (v_i+v_j)/2 and values."""
    m = values.size
    vals = np.sort(values)
    cands = np.unique(np.concatenate([(vals[:, None] + vals[None, :]).ravel() / 2.0, vals]))
    allowed = int(Fraction(lam) * m)
    dev = np.sort(np.abs(values[None, :] - cands[:, None]), axis=1)[:, ::-1]
    if allowed >= m:
        return 0.0
    return float(np.min(dev[:, allowed]))


def median_oracle(values, h):
    m = values.size
    valid = [v for v in np.sort(values)
             if np.sum(values > v) * 2 <= m and np.sum(values < v) * 2 <= m]
    return min(valid, key=lambda v: (abs(v), v))


def random_f(ncells, s=None):
    s = int(np.log2(ncells)) if s is None else s
    return GridFunction(0, s, RNG.standard_normal(ncells))


def test_cell_count_rejects_a_resolution_coarser_than_the_domain():
    # 2 ** (L + s) with L + s < 0 is a float, which np.zeros rejects with a TypeError
    assert cell_count(2, -2) == 1 and cell_count(-1, 4) == 8
    for level_L, s in ((0, -1), (2, -3), (-2, 1)):
        with pytest.raises(ValueError, match="coarser than the domain"):
            cell_count(level_L, s)
        with pytest.raises(ValueError, match="coarser than the domain"):
            GridFunction(level_L, s, np.zeros(1))


def test_rearrangement_two_value_step():
    f = GridFunction(0, 4, np.concatenate([np.ones(8), np.zeros(8)]))
    assert rearrangement_value(f, None, 0.25) == 1.0
    assert rearrangement_value(f, None, 0.5) == 0.0


def test_rearrangement_constant():
    f = GridFunction(0, 4, np.full(16, -2.5))
    for t in (0.01, 0.1, 0.5, 0.99):
        assert rearrangement_value(f, None, t) == 2.5
    # at t = |Q| the superlevel condition holds already at tau = 0
    assert rearrangement_value(f, None, 1.0) == 0.0


def test_rearrangement_brute_force():
    for _ in range(200):
        f = random_f(16)
        t = float(RNG.uniform(1e-3, 1.0))
        assert rearrangement_value(f, None, t) == pytest.approx(
            rearrangement_oracle(f.values, 1 / 16, t), abs=1e-14
        )


def test_rearrangement_defining_inf_property():
    h = 1 / 32
    for _ in range(300):
        f = random_f(32)
        t = float(RNG.uniform(h, 1.0))
        r = rearrangement_value(f, None, t)
        assert np.sum(np.abs(f.values) > r) * h <= t
        if r > 0:
            eps = 1e-9 * (1 + abs(r))
            assert np.sum(np.abs(f.values) > r - eps) * h > t


def test_rearrangement_monotone_in_t():
    f = random_f(64)
    ts = np.linspace(0.01, 1.0, 25)
    vals = [rearrangement_value(f, None, t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rearrangement_rejects_bad_t():
    f = random_f(16)
    with pytest.raises(ValueError):
        rearrangement_value(f, None, 0.0)
    with pytest.raises(ValueError):
        rearrangement_value(f, None, 1.5)


def test_median_four_values():
    f = GridFunction(0, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    assert median(f) == 2.0


def test_median_constant():
    f = GridFunction(0, 3, np.full(8, 7.25))
    assert median(f) == 7.25


def test_median_exhaustive_scan():
    for _ in range(300):
        f = random_f(32)
        assert median(f) == median_oracle(f.values, 1 / 32)


def test_median_inequality_41():
    # |m_f(Q)| <= (f chi_Q)*(|Q|/2), over random functions and subcubes
    for _ in range(1000):
        f = random_f(64)
        lev = int(RNG.integers(0, 5))
        size = 64 >> lev
        a = int(RNG.integers(0, 64 // size)) * size
        q = (a, a + size)
        m = median(f, q)
        assert abs(m) <= rearrangement_value(f, q, size / 64 / 2) + 1e-15


def test_local_osc_examples():
    vals = np.zeros(16)
    vals[:4] = 1.0  # chi_[0, 1/4)
    f = GridFunction(0, 4, vals)
    assert local_osc(f, None, Fraction(1, 4)) == 0.0
    assert local_osc(GridFunction(0, 4, np.full(16, 3.3)), None, Fraction(1, 8)) == 0.0


def test_local_osc_brute_force():
    for _ in range(200):
        f = random_f(64)
        assert local_osc(f, None, Fraction(1, 8)) == pytest.approx(
            osc_oracle(f.values, 1 / 64, Fraction(1, 8)), abs=1e-12
        )


def test_local_osc_monotone_in_lambda():
    f = random_f(64)
    lams = [Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    vals = [local_osc(f, None, lam) for lam in lams]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_local_osc_bounded_by_median_rearrangement():
    for _ in range(200):
        f = random_f(32)
        lam = Fraction(1, 8)
        shifted = f.with_values(f.values - median(f))
        assert local_osc(f, None, lam) <= rearrangement_value(shifted, None, lam) + 1e-12


def test_local_osc_rejects_bad_lambda():
    f = random_f(16)
    for lam in (0, 1, -0.5, 1.5):
        with pytest.raises(ValueError):
            local_osc(f, None, lam)


def test_lemma_43_subadditive():
    lam = Fraction(1, 8)
    for _ in range(200):
        k = int(RNG.integers(2, 5))
        fs = [random_f(64) for _ in range(k)]
        total = fs[0].with_values(np.sum([g.values for g in fs], axis=0))
        lev = int(RNG.integers(0, 4))
        size = 64 >> lev
        a = int(RNG.integers(0, 64 // size)) * size
        q = (a, a + size)
        lhs = local_osc(total, q, lam)
        rhs = sum(local_osc(g, q, Fraction(lam, k)) for g in fs)
        assert lhs <= rhs + 1e-12


def sharp_max_oracle(f, lam):
    n = f.ncells
    out = np.zeros(n)
    size = 2
    while size <= n:
        for a in range(0, n, size):
            osc = local_osc(f, (a, a + size), lam)
            out[a : a + size] = np.maximum(out[a : a + size], osc)
        size *= 2
    return out


def test_sharp_max_constant_zero():
    f = GridFunction(0, 5, np.full(32, 4.0))
    assert np.all(local_sharp_max_dyadic(f).values == 0.0)


def test_sharp_max_matches_enumeration():
    for _ in range(25):
        f = random_f(64)
        got = local_sharp_max_dyadic(f).values
        assert np.allclose(got, sharp_max_oracle(f, Fraction(1, 4)), atol=1e-14)


def test_sharp_max_indicator_case():
    vals = np.zeros(32)
    vals[:16] = 1.0
    f = GridFunction(0, 5, vals)
    got = local_sharp_max_dyadic(f).values
    assert np.allclose(got, sharp_max_oracle(f, Fraction(1, 4)), atol=1e-14)


def test_sharp_max_monotone_function_bound():
    f = GridFunction(0, 6, np.sort(RNG.standard_normal(64)))
    got = local_sharp_max_dyadic(f).values
    assert np.all(got >= 0)
    assert np.all(got <= (f.values.max() - f.values.min()) / 2 + 1e-15)


def test_gridfn_geometry_and_cube_addressing():
    f = GridFunction(1, 3, np.arange(16, dtype=float), origin=-1)
    assert f.cell_range(None) == (0, 16)
    with pytest.raises(TypeError):
        f.cell_range(DyadicCube(0, (0,)))  # cubes are addressed by cell ranges only
    assert f.integral_abs(0, 16) == pytest.approx(np.sum(f.values) / 8)


def test_gridfn_json_roundtrip(tmp_path):
    f = GridFunction(1, 4, RNG.standard_normal(32), origin=-1)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    g = GridFunction.load(path)
    assert g.level_L == f.level_L and g.resolution_s == f.resolution_s
    assert g.origin == f.origin
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_function_rejects_non_finite(bad):
    vals = np.ones(16)  # fresh per case: the constructor freezes its input
    vals[5] = bad
    with pytest.raises(ValueError, match="finite"):
        GridFunction(0, 4, vals)


def test_grid_function_accepts_finite_values_whose_sum_overflows():
    # the finiteness guard once tested the |f| total, which overflows here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = GridFunction(0, 1, [1e308, 1e308])
    assert f.values.tolist() == [1e308, 1e308]


@st.composite
def weighted_intervals(draw):
    """(ncells, a, b, c) with 0 <= a <= b <= ncells; small ncells and a
    narrow value pool make a == b, repeated endpoints and b == ncells common."""
    ncells = draw(st.integers(1, 12))
    count = draw(st.integers(0, 20))
    ends = [sorted(draw(st.tuples(st.integers(0, ncells), st.integers(0, ncells)))) for _ in range(count)]
    c = draw(st.lists(st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.1, 1e-17, 3.0])),
                      min_size=count, max_size=count))
    return ncells, [e[0] for e in ends], [e[1] for e in ends], c


@settings(max_examples=300, deadline=None)
@given(weighted_intervals())
def test_interval_sums_is_the_sequential_loop_bytewise(case):
    ncells, a, b, c = case
    acc = np.zeros(ncells + 1)
    for ai, bi, ci in zip(a, b, c):
        acc[ai] += ci
        acc[bi] -= ci
    want = np.cumsum(acc[:-1])
    assert interval_sums(ncells, a, b, c).tobytes() == want.tobytes()
    assert interval_sums(ncells, np.array(a), np.array(b), np.array(c)).tobytes() == want.tobytes()


def test_interval_sums_edge_cases():
    assert interval_sums(4, [], [], []).tobytes() == np.zeros(4).tobytes()
    # a == b adds and removes the same value at one cell
    assert interval_sums(3, [1], [1], [0.1]).tobytes() == np.cumsum([0.0, 0.1 - 0.1, 0.0]).tobytes()
    assert np.array_equal(interval_sums(4, [0, 2, 2], [4, 4, 3], [1.0, 2.0, 4.0]), [1.0, 1.0, 7.0, 3.0])
