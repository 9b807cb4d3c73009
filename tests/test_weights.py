"""A_p / A_infty functionals against enumeration oracles and invariants."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ap_characteristic_dense, power_cell_averages_masked, power_weight_pm1

import sharpwt.weights as weights
from sharpwt.gridfn import GridFunction
from sharpwt.harness import corpus_weights, refine
from sharpwt.operators import maximal
from sharpwt.weights import (
    PowerWeightSpec,
    Weight,
    ainfty_fujii,
    ap_characteristic,
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


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 1.0, 0.5])
def test_ap_rejects_a_p_that_is_not_finite_and_above_one(p):
    # p = inf gave 1.0 and p = nan gave 1.0 (every window NaN)
    w = power_weight(6, 0.5)
    with pytest.raises(ValueError, match="finite p > 1"):
        ap_characteristic(w, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.3])
def test_ap_with_the_sigma_it_would_form_is_bitwise_its_default(p):
    for w in (power_weight_pm1(10, 0.5), power_weight_pm1(9, -0.75), random_weight(512)):
        assert ap_characteristic(w, p, w.sigma_values(p)) == ap_characteristic(w, p)


@pytest.mark.parametrize("bad", [np.ones(63), np.ones((64, 1)), np.zeros(64), -np.ones(64),
                                 np.full(64, np.nan), np.full(64, np.inf)])
def test_ap_rejects_a_sigma_that_is_not_one_positive_finite_value_per_cell(bad):
    w = power_weight(6, 0.5)
    with pytest.raises(ValueError, match="sigma"):
        ap_characteristic(w, 2.0, bad)


def test_power_weight_matches_full_enumeration():
    w = power_weight_pm1(10, 0.5)  # |x|^(1/2) on [-1,1) at s=10
    got = ap_characteristic(w, 2.0)
    full = ap_characteristic_dense(w, 2.0, every_length=True)
    assert got <= full + 1e-12
    assert full <= 2.0**2 * got + 1e-12
    # free positioning makes the dyadic-length family nearly exhaustive; the
    # optimal window length itself is not dyadic, hence no exact equality
    assert got == pytest.approx(full, rel=2e-5)


STRESS_P = (1.25, 1.5, 2.0, 3.0, 4.0, 7.3)


@st.composite
def stress_weights(draw):
    """Weights that put the block bounds of `ap_characteristic` to the test:
    constant, lognormal, power weights singular on a cell edge or a cell
    centre, a 1e6 cell with a 1e-6 cell that only one window of a pruned
    length holds both of, its start first or last in its block of starts
    (block averages from length 2 _SHORT_BLOCK on; for the lengths up to
    _SHORT_BLOCK, blocks of _SHORT_BLOCK starts, so that the window crosses
    into the next block), and a 1e12 cell beside a run of 1e-6 cells,
    whose prefix sums absorb the small cells."""
    level_L = draw(st.sampled_from([0, 1]))
    s = draw(st.integers(0, 14 - level_L))
    n = 2 ** (level_L + s)
    origin = Fraction(-draw(st.integers(0, n)), 2**s)
    probe = GridFunction(level_L, s, np.zeros(n), origin)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "lognormal", "power", "spikes", "short spikes",
                                 "spike beside small"]))
    if kind == "power":
        # |x|^a with its spec, x = 0 on a cell edge; or, as a generic weight,
        # the cell averages of |x - c|^a with c a cell centre
        a = draw(st.floats(-0.95, 4.0))
        if draw(st.booleans()):
            spec = PowerWeightSpec(a)
            return Weight(probe.with_values(spec.cell_averages(probe.cell_edges())), power=spec)
        c = float(origin) + (draw(st.integers(0, n - 1)) + 0.5) * float(probe.cell_width)
        return Weight(probe.with_values(power_cell_averages(probe.cell_edges(), a, c)))
    if kind == "constant":
        vals = np.full(n, draw(st.sampled_from([1e-3, 1.0, 7.0])))
    else:
        vals = np.exp(draw(st.sampled_from([0.1, 1.0, 4.0, 8.0])) * rng.standard_normal(n))
    short = weights._SHORT_BLOCK.bit_length()  # 2^short = 2 _SHORT_BLOCK
    if kind == "spikes" and n >= 4 * weights._SHORT_BLOCK or kind == "short spikes" and n >= 2 * weights._SHORT_BLOCK:
        vals = np.exp(0.1 * rng.standard_normal(n))
        if kind == "spikes":
            ln = 2 ** draw(st.integers(short, n.bit_length() - 2))
            size = ln // 8
        else:
            ln, size = 2 ** draw(st.integers(1, short - 1)), weights._SHORT_BLOCK
        a = draw(st.integers(0, (n - ln) // size - 1)) * size + draw(st.sampled_from([0, size - 1]))
        big, small = draw(st.permutations([1e6, 1e-6]))
        vals[a], vals[a + ln - 1] = big, small
    if kind == "spike beside small":
        vals = np.exp(0.1 * rng.standard_normal(n))
        a = draw(st.integers(0, n - 1))
        run = draw(st.integers(1, 80))
        vals[max(a - run, 0) : a + run + 1] = 1e-6
        vals[a] = 1e12
    return Weight(probe.with_values(vals))


def check_ap_matches_dense_loop(w, p, chunk=64):
    """Bytewise against the dense loop, with chunks of `chunk` window
    starts, so that small grids reach the pruned lengths and chunk seams."""
    with mock.patch.object(weights, "_AP_CHUNK", chunk):
        got = ap_characteristic(w, p)
    assert np.float64(got).tobytes() == np.float64(ap_characteristic_dense(w, p)).tobytes()


@settings(max_examples=300, deadline=None)
@given(stress_weights(), st.sampled_from(STRESS_P))
def test_ap_matches_dense_loop_bytewise(w, p):
    check_ap_matches_dense_loop(w, p)


def test_ap_matches_dense_loop_on_fit_weights():
    # 2^17 and 2^18 cells prune with the chunk ap_characteristic uses
    for s, a, p in [(17, (1 - 2**-1.5) * 1.0, 2.0), (16, -(1 - 2**-3), 3.0), (16, 0.75 * 0.5, 1.5),
                    (12, (1 - 2**-6) * 3.0, 4.0), (11, (1 - 2**-4) * 2.0, 3.0)]:
        w = power_weight_pm1(s, a)
        check_ap_matches_dense_loop(w, p, weights._AP_CHUNK)
        check_ap_matches_dense_loop(w, p)


def _one_cell_short(prefix, ln, size, lo=0, hi=None):
    """_block_averages over [s, e - 2 + ln) for each block [s, e) of the
    starts [lo, hi): each block's last window loses its last cell."""
    hi = prefix.size - ln if hi is None else hi
    s = np.arange(lo, hi, size)
    e = np.minimum(s + size, hi)
    return (prefix[e - 2 + ln] - prefix[s]) / ln


def _own_block_max(values):
    """_pair_max without the next block: a window that crosses out of its block loses cells."""
    return np.maximum.reduceat(values, np.arange(0, values.size, weights._SHORT_BLOCK))


def assert_the_stress_property_fails():
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              report_multiple_bugs=False)
    @given(stress_weights(), st.sampled_from(STRESS_P))
    def mutant_run(w, p):
        check_ap_matches_dense_loop(w, p)

    with pytest.raises(AssertionError):
        mutant_run()


def test_a_bound_one_cell_short_fails_the_dense_loop_test(monkeypatch):
    monkeypatch.setattr(weights, "_block_averages", _one_cell_short)
    assert_the_stress_property_fails()


def test_a_pair_max_without_the_next_block_fails_the_dense_loop_test(monkeypatch):
    monkeypatch.setattr(weights, "_pair_max", _own_block_max)
    assert_the_stress_property_fails()


@st.composite
def decoy_weights(draw):
    """A weight whose largest window is not in the block of highest bound,
    so that it is found only through the re-bounded sub-blocks: a 1e6 cell
    and a 1e-6 cell ln - 1 apart, the window that holds both starting
    first or last in its sub-block of size // 8 starts, and a decoy pair
    1.5e6 and 1 / 1.5e6 in another block, more than ln apart, whose block
    bound is higher but whose windows are lower, those of length 2 ln that
    hold both included.  With `_REBOUND_FROM` patched to 2
    the lengths from 2 _SHORT_BLOCK on are re-bounded."""
    s = draw(st.integers(10, 13))
    n = 2**s
    ln = 2 ** draw(st.integers(weights._SHORT_BLOCK.bit_length(), s - 3))  # 2 _SHORT_BLOCK .. n / 8
    size = ln // 8
    sub = size // 8
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.exp(0.1 * rng.standard_normal(n))
    blocks = (n - ln) // size  # at least 56
    k_true = draw(st.integers(0, blocks - 1))
    k_decoy = k_true + 20 if k_true + 20 < blocks else k_true - 20  # 2.5 ln apart
    a = k_true * size + draw(st.integers(0, 7)) * sub + draw(st.sampled_from([0, sub - 1]))
    vals[a], vals[a + ln - 1] = draw(st.permutations([1e6, 1e-6]))
    d = k_decoy * size
    vals[d], vals[d + ln + size // 2] = draw(st.permutations([1.5e6, 1 / 1.5e6]))
    return Weight(GridFunction(0, s, vals))


@settings(max_examples=120, deadline=None)
@given(decoy_weights(), st.sampled_from([1.5, 2.0]), st.sampled_from([2, weights._REBOUND_FROM]))
def test_ap_matches_dense_loop_where_only_a_sub_block_holds_the_max(w, p, rebound_from):
    with mock.patch.object(weights, "_REBOUND_FROM", rebound_from):
        check_ap_matches_dense_loop(w, p)


def _one_cell_short_in_a_run(prefix, ln, size, lo=0, hi=None):
    """_block_averages one cell short where it bounds the sub-blocks of a
    run of starts, but not over all the starts of a length."""
    return (_one_cell_short if hi is not None else _BLOCK_AVERAGES)(prefix, ln, size, lo, hi)


_BLOCK_AVERAGES = weights._block_averages


def test_a_sub_block_bound_one_cell_short_fails_the_decoy_test(monkeypatch):
    monkeypatch.setattr(weights, "_block_averages", _one_cell_short_in_a_run)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None, report_multiple_bugs=False)
    @given(decoy_weights(), st.sampled_from([1.5, 2.0]))
    def mutant_run(w, p):
        with mock.patch.object(weights, "_REBOUND_FROM", 2):
            check_ap_matches_dense_loop(w, p)

    with pytest.raises(AssertionError):
        mutant_run()


# constant weights whose prefix sums round by more than _POW_SLACK relative
# to one cell, so that a short window's computed value tops its largest cells
PREFIX_ROUNDING = [(12, 0.1, 7.3), (14, 3.3, 3.0), (16, 1e-7, 1.5)]


@pytest.mark.parametrize("s, c, p", PREFIX_ROUNDING)
def test_ap_matches_dense_loop_where_prefix_rounding_tops_the_slack(s, c, p):
    check_ap_matches_dense_loop(Weight(GridFunction(0, s, np.full(2**s, c))), p)


def test_short_bounds_without_the_prefix_error_fail_the_dense_loop_test(monkeypatch):
    monkeypatch.setattr(weights, "_cumsum_error", lambda prefix: 0.0)
    for s, c, p in PREFIX_ROUNDING:
        with pytest.raises(AssertionError):
            check_ap_matches_dense_loop(Weight(GridFunction(0, s, np.full(2**s, c))), p)


def test_ap_blows_up_along_delta():
    vals = []
    for delta in (0.5, 0.25, 0.125):
        w = power_weight_pm1(10, (1 - delta) * 1.0)  # p = 2
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
            full = ap_characteristic_dense(w, p, every_length=True)
            assert 1.0 - 1e-12 <= full / got <= 2.0**p + 1e-12


def test_scaling_invariance():
    w = random_weight(128)
    base = ap_characteristic(w, 2.5)
    for c in (0.01, 3.0, 1e4):
        assert ap_characteristic(Weight(w.base.with_values(c * w.values)), 2.5) == pytest.approx(base, rel=1e-12)


def test_a_power_spec_beside_values_it_does_not_average_to_is_refused():
    # a power weight's step values on a grid twice as fine are a generic
    # weight; kept beside the spec, its dual would be the closed form's,
    # the hybrid whose A_2 read 1.7239 where the step function's is 1.3331
    powers = [w for _, w in corpus_weights(0, 7) if w.power is not None]
    assert len(powers) == 20
    for w in powers:
        with pytest.raises(ValueError, match="not PowerWeightSpec"):
            Weight(refine(w.base), power=w.power)
        Weight(refine(w.base))
    # the singular cell is checked too, to 1e-12 relative: x = 0 starts cell 32 of [-1/2, 1/2)
    spec = PowerWeightSpec(-0.5)
    near, off = (spec.cell_averages(np.arange(65) / 64 - 0.5) for _ in range(2))
    near[32] *= 1 + 1e-13
    off[32] *= 1 + 1e-9
    Weight(GridFunction(0, 6, near, Fraction(-1, 2)), power=spec)
    with pytest.raises(ValueError, match="cell 32 holds"):
        Weight(GridFunction(0, 6, off, Fraction(-1, 2)), power=spec)


def test_power_weight_spec_validation_and_duals():
    with pytest.raises(ValueError):
        PowerWeightSpec(-1.0)
    spec = PowerWeightSpec(1.0)
    assert spec.dual(2.0) is None  # |x|^-1 is not locally integrable
    assert spec.dual(3.0) == PowerWeightSpec(-0.5)
    # the family is |x|^a: no other centre or coefficient
    assert (spec.center, spec.coeff) == (0.0, 1.0)
    with pytest.raises(TypeError):
        PowerWeightSpec(0.5, 0.0)


def test_power_cell_averages_exact_near_origin():
    edges = np.array([-0.25, 0.0, 0.25, 0.5])
    avg = power_cell_averages(edges, 0.5)
    # int |x|^(1/2) over [-1/4, 0) = (1/4)^(3/2) / (3/2)
    assert avg[0] == pytest.approx((0.25**1.5 / 1.5) / 0.25, rel=1e-13)
    assert avg[2] == pytest.approx((0.5**1.5 - 0.25**1.5) / 1.5 / 0.25, rel=1e-13)


def _power_grids():
    """The edges of the corpus grids, the scans' refined grid and the
    frozen fits' grid of 2^19 cells on [-1, 1)."""
    for L, s, origin in ((0, 6, 0), (0, 7, 0), (1, 18, -1)):
        yield GridFunction(L, s, np.zeros(2 ** (L + s)), origin=origin).cell_edges()


@pytest.mark.parametrize("a", [-1 + 2**-1.5, -1.0 / 3.0, -0.25, 0.0, 0.5, 1.5, 400.0])
def test_power_cell_averages_is_bytewise_the_masked_negation(a):
    # a = 400 underflows the cells near the centre to zeros, whose sign the
    # bytes compare; centres on the zero edge, of either sign, and off the
    # grid's edges on both sides of it, where the differences of u = edges -
    # centre round apart from those of the edges, then on an edge and
    # between two edges
    for edges in _power_grids():
        n = edges.size - 1
        centres = (0.0, -0.0, 1 / 3, -0.3, -0.7, 1e-300, float(edges[n // 3]), float(edges[n // 3] + edges[n // 3 + 1]) / 2)
        for c in centres if n < 2**19 else centres[:4]:
            want = power_cell_averages_masked(edges, a, c).tobytes()
            assert power_cell_averages(edges, a, c).tobytes() == want, c
            out = np.full(n, np.nan)
            got = power_cell_averages(edges, a, c, out)
            assert got is out and out.tobytes() == want, c


def test_power_cell_averages_underflow_to_zero_on_both_sides_of_an_edge_centre():
    # so that the bytewise test above compares the signs of zero cells
    edges = next(_power_grids())
    avg = power_cell_averages(edges, 400.0, float(edges[20]))
    assert np.all(avg[12:28] == 0.0) and avg[0] > 0 and avg[-1] > 0


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


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.5])
def test_weighted_lp_norm_rejects_a_p_that_is_not_finite_and_at_least_one(p):
    # p = nan gave nan and p = inf gave 1.0
    f = GridFunction(0, 5, np.full(32, 3.0))
    w = Weight(GridFunction(0, 5, np.ones(32)))
    with pytest.raises(ValueError, match="finite and >= 1"):
        weighted_lp_norm(f, w, p)


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
