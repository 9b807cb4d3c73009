"""A_p / A_infty functionals against enumeration oracles and invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpwt.gridfn import GridFunction
from sharpwt.harness import corpus_weights
from sharpwt.operators import maximal
from sharpwt.weights import (
    PowerWeightSpec,
    Weight,
    ainfty_fujii,
    ap_characteristic,
    ap_characteristic_full,
    power_cell_averages,
    power_weight,
    weighted_lp_norm,
)

RNG = np.random.default_rng(31)


def random_weight(n, s=None, spread=1.0):
    s = int(np.log2(n)) if s is None else s
    return Weight(GridFunction(0, s, np.exp(spread * RNG.standard_normal(n))))


def test_constant_weight_gives_one():
    w = Weight(GridFunction(0, 6, np.full(64, 5.0)))
    for p in (1.5, 2.0, 3.0):
        assert ap_characteristic(w, p) == pytest.approx(1.0, abs=1e-9)


def test_ap_rejects_bad_input():
    with pytest.raises(ValueError):
        ap_characteristic(random_weight(16), 1.0)
    with pytest.raises(ValueError):
        Weight(GridFunction(0, 4, np.concatenate([np.ones(8), -np.ones(8)])))


def test_power_weight_matches_full_enumeration():
    w = power_weight(1, 10, 0.5, origin=-1)  # |x|^(1/2) on [-1,1) at s=10
    got = ap_characteristic(w, 2.0)
    full = ap_characteristic_full(w, 2.0)
    assert got <= full + 1e-12
    assert full <= 2.0**2 * got + 1e-12
    # free positioning makes the dyadic-length family nearly exhaustive; the
    # optimal window length itself is not dyadic, hence no exact equality
    assert got == pytest.approx(full, rel=2e-5)


def test_ap_blows_up_along_delta():
    vals = []
    for delta in (0.5, 0.25, 0.125):
        w = power_weight(1, 10, (1 - delta) * 1.0, origin=-1)  # p = 2
        vals.append(ap_characteristic(w, 2.0))
    assert vals[0] < vals[1] < vals[2]


def test_ap_ge_one_always():
    for _ in range(50):
        w = random_weight(64)
        assert ap_characteristic(w, 2.0) >= 1.0
        assert ap_characteristic(w, 3.0) >= 1.0


def test_restricted_vs_full_within_2p():
    for p in (1.5, 2.0, 3.0):
        for _ in range(20):
            w = random_weight(32)
            got = ap_characteristic(w, p)
            full = ap_characteristic_full(w, p)
            assert 1.0 - 1e-12 <= full / got <= 2.0**p + 1e-12


def test_scaling_invariance():
    w = random_weight(128)
    base = ap_characteristic(w, 2.5)
    for c in (0.01, 3.0, 1e4):
        assert ap_characteristic(Weight(w.base.with_values(c * w.values)), 2.5) == pytest.approx(base, rel=1e-12)
    # a power weight keeps its closed form, so the dual side is exact
    wp = power_weight(0, 7, 0.5)
    basep = ap_characteristic(wp, 2.0)
    spec = PowerWeightSpec(0.5, coeff=7.5)
    scaled = Weight(wp.base.with_values(7.5 * wp.values), power=spec)
    assert ap_characteristic(scaled, 2.0) == pytest.approx(basep, rel=1e-12)


def test_power_weight_spec_validation_and_duals():
    with pytest.raises(ValueError):
        PowerWeightSpec(-1.0)
    spec = PowerWeightSpec(1.0)
    assert spec.dual(2.0) is None  # |x|^-1 is not locally integrable
    dual = spec.dual(3.0)
    assert dual is not None and dual.exponent == pytest.approx(-0.5)


def test_power_cell_averages_exact_near_origin():
    edges = np.array([-0.25, 0.0, 0.25, 0.5])
    avg = power_cell_averages(edges, 0.5)
    # int |x|^(1/2) over [-1/4, 0) = (1/4)^(3/2) / (3/2)
    assert avg[0] == pytest.approx((0.25**1.5 / 1.5) / 0.25, rel=1e-13)
    assert avg[2] == pytest.approx((0.5**1.5 - 0.25**1.5) / 1.5 / 0.25, rel=1e-13)


def test_ainfty_constant_weight():
    w = Weight(GridFunction(0, 10, np.ones(1024)))
    val = ainfty_fujii(w)
    assert 1.0 <= val <= 1.05


def ainfty_oracle(w):
    base = w.base
    h = float(base.cell_width)
    best = 0.0
    n = base.ncells
    for ln in [2**m for m in range(int(np.log2(n)) + 1)]:
        for a in range(0, n - ln + 1):
            chopped = np.zeros(n)
            chopped[a : a + ln] = base.values[a : a + ln]
            mf = maximal(base.with_values(chopped)).values
            best = max(best, h * float(np.sum(mf[a : a + ln])) / w.mass(a, a + ln))
    return best


def test_ainfty_two_level_weight_matches_oracle():
    vals = np.concatenate([np.ones(8), np.full(8, 4.0)])
    w = Weight(GridFunction(0, 4, vals))
    assert ainfty_fujii(w) == pytest.approx(ainfty_oracle(w), rel=1e-12)


@st.composite
def positive_weights(draw):
    level_L = draw(st.sampled_from([-1, 0, 1]))
    s = draw(st.integers(max(0, -level_L), 6))
    n = 2 ** (level_L + s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vals = np.exp(draw(st.sampled_from([0.5, 2.0, 5.0])) * rng.standard_normal(n))
    else:
        vals = np.where(rng.random(n) < 0.5, 1.0, draw(st.sampled_from([1e-3, 4.0, 1e4])))
    origin = Fraction(-draw(st.integers(1, 3 * n)), 2**s)
    return Weight(GridFunction(level_L, s, vals, origin))


@settings(max_examples=40, deadline=None)
@given(positive_weights(), st.sampled_from([1e-3, 7.5, 1e5]))
def test_ainfty_matches_window_oracle(w, c):
    got = ainfty_fujii(w)
    assert got == pytest.approx(ainfty_oracle(w), rel=1e-12)
    assert got >= 1.0
    assert ainfty_fujii(Weight(w.base.with_values(c * w.values))) == pytest.approx(got, rel=1e-12)


def test_ainfty_corpus_weights_match_oracle():
    for label, w in corpus_weights(seed=41, resolution_s=7, n=5):
        assert ainfty_fujii(w) == pytest.approx(ainfty_oracle(w), rel=1e-12), label


def test_ainfty_below_ap_ratio_finite():
    ratios = []
    for _ in range(20):
        w = random_weight(32, spread=0.8)
        ratios.append(ainfty_fujii(w) / ap_characteristic(w, 2.0))
    assert np.isfinite(ratios).all()
    assert max(ratios) < 10.0  # observed well below; monitors (5.13) sanity


def test_weighted_lp_norm_examples():
    f = GridFunction(0, 5, np.ones(32))
    w = Weight(GridFunction(0, 5, np.ones(32)))
    for p in (1.0, 2.0, 3.5):
        assert weighted_lp_norm(f, w, p) == pytest.approx(1.0, rel=1e-14)
    half = GridFunction(0, 5, np.concatenate([np.ones(16), np.zeros(16)]))
    w2 = Weight(GridFunction(0, 5, np.full(32, 2.0)))
    assert weighted_lp_norm(half, w2, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_weighted_lp_norm_extended_precision_oracle():
    import mpmath

    f = GridFunction(0, 5, RNG.standard_normal(32))
    w = random_weight(32)
    got = weighted_lp_norm(f, w, 3.0)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for v, wv in zip(f.values, w.values):
            total += abs(mpmath.mpf(v)) ** 3 * mpmath.mpf(wv) / 32
        want = float(total ** (mpmath.mpf(1) / 3))
    assert got == pytest.approx(want, rel=1e-12)


def test_weighted_lp_norm_grid_mismatch():
    f = GridFunction(0, 5, np.ones(32))
    w = Weight(GridFunction(0, 6, np.ones(64)))
    with pytest.raises(ValueError):
        weighted_lp_norm(f, w, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weight_rejects_non_finite(bad):
    # a NaN cell used to pass the positivity guard and give A_2 = A_inf = 1.0
    vals = np.ones(64)
    vals[5] = bad
    with pytest.raises(ValueError, match="finite"):
        Weight(GridFunction(0, 6, vals))
