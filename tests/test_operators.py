"""Classical operators: maximal functions vs enumeration, the martingale
square function's exact Parseval identity, psi-kernel square functions, and
the truncated Hilbert transform's closed forms and symmetries."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dyadic_square_mean_per_level,
    hilbert_full_kernel,
    hilbert_kernel_direct,
    hilbert_max_per_delta,
    holder_seminorm_per_lag,
    maximal_whole_grid,
    psi_convolve_at,
)

import sharpwt
import sharpwt.operators as operators
from sharpwt.gridfn import GridFunction, cell_count
from sharpwt.harness import ACCEPTANCE_RUNS, HALF_OCTAVE_LADDER, _extremal_pair, corpus_functions
from sharpwt.weights import power_cell_averages
from sharpwt.operators import (
    PSI,
    _even_poly_integral,
    _hilbert_kernel,
    _log_table,
    _trailing_max,
    dyadic_square,
    g_psi,
    hilbert,
    hilbert_max,
    hilbert_on,
    hilbert_truncated,
    maximal,
    psi_convolve_grid,
    psi_engine,
    s_psi,
    truncation_ladder,
)

RNG = np.random.default_rng(64)


# ---- maximal functions ----


def maximal_oracle(f, lengths):
    """Per cell, the max average of |f| over every window of the given
    lengths that contains it, one pass per (length, offset) pair."""
    v = np.abs(f.values)
    n = v.size
    pre = np.concatenate(([0.0], np.cumsum(v)))
    out = np.zeros(n)
    for ln in lengths:
        avg = (pre[ln:] - pre[:-ln]) / ln  # window [a, a + ln) for a = 0 .. n - ln
        for d in range(ln):  # cell a + d lies in window a
            np.maximum(out[d : d + avg.size], avg, out=out[d : d + avg.size])
    return out


def test_maximal_indicator():
    vals = np.zeros(256)
    vals[128:160] = 1.0  # [0,1) inside [-4,4)
    f = GridFunction(3, 5, vals, origin=-4)
    mf = maximal(f)
    assert np.all(mf.values[128:160] == 1.0)
    assert np.all(mf.values <= 1.0)


def test_maximal_constant():
    f = GridFunction(0, 6, np.full(64, -3.0))
    assert np.all(maximal(f).values == 3.0)


def test_maximal_matches_family_enumeration():
    n = 128
    f = GridFunction(0, 7, RNG.standard_normal(n))
    dyadic_lengths = [2**m for m in range(8)]
    assert np.allclose(maximal(f).values, maximal_oracle(f, dyadic_lengths), atol=1e-12)
    full = maximal_oracle(f, list(range(1, n + 1)))
    ratio = full / maximal(f).values
    assert np.all(ratio >= 1.0 - 1e-12) and np.all(ratio <= 2.0 + 1e-12)


@pytest.mark.parametrize("L, s, origin", [(0, 0, 0), (0, 1, 0), (0, 3, 0), (0, 8, 0), (1, 12, -1)],
                         ids=["0", "1", "3", "8", "12-L1-neg"])
def test_maximal_bytewise_against_window_enumeration(L, s, origin):
    f = GridFunction(L, s, RNG.standard_normal(2 ** (L + s)), origin=origin)
    want = np.maximum(np.abs(f.values), maximal_oracle(f, [2**m for m in range(1, L + s + 1)]))
    assert maximal(f).values.tobytes() == want.tobytes()


def large_grid_inputs(L, s):
    """Zero, normal, heavy-tailed and exponent-fit values on the grid of side
    2^L at resolution s, origin -2^(L-1); the fit's f is |x|^(delta-1) on the
    cells of (0, 1) and 0 elsewhere.  Then |x - c|^(delta-1) on the whole
    grid, c the centre of an interior cell or the grid's left edge."""
    n = 2 ** (L + s)
    probe = GridFunction(L, s, np.zeros(n), origin=-(2 ** (L - 1)))
    edges = probe.cell_edges()
    fit = np.zeros(n)
    i0, i1 = int(np.searchsorted(edges, 0.0)), int(np.searchsorted(edges, 1.0, "right")) - 1
    fit[i0:i1] = power_cell_averages(edges[i0 : i1 + 1], -1 + 2**-1.5)
    for vals in (np.zeros(n), RNG.standard_normal(n), RNG.standard_cauchy(n), fit):
        yield probe.with_values(vals)
    for c in ((edges[3 * n // 8 + 5] + edges[3 * n // 8 + 6]) / 2, edges[0]):
        yield probe.with_values(power_cell_averages(edges, -1 + 2**-1.5, float(c)))


@pytest.mark.parametrize("L, s", [(1, 17), (1, 18)], ids=["17-L1", "18-L1"])
def test_maximal_in_chunks_is_bytewise_the_whole_grid_pass(L, s):
    for f in large_grid_inputs(L, s):
        assert maximal(f).values.tobytes() == maximal_whole_grid(f).tobytes()


def fit_inputs(name):
    """f at every ladder point of the frozen fit `name`, as exponent_experiment builds it."""
    spec = ACCEPTANCE_RUNS[name][0]
    grid = GridFunction(1, spec.resolution_s, np.zeros(cell_count(1, spec.resolution_s)), origin=-1)
    edges = grid.cell_edges()
    for delta in spec.deltas:
        yield _extremal_pair(spec, grid, edges, delta)[0]


@pytest.mark.parametrize("name, chunk", [("maximal-p2", operators._MAX_CHUNK), ("maximal-p4", 1 << 12)])
def test_maximal_on_the_fit_inputs_is_bytewise_the_whole_grid_pass(name, chunk):
    # maximal-p4's 2^15 cells reach the bounded passes with a smaller chunk
    with mock.patch.object(operators, "_MAX_CHUNK", chunk):
        for f in fit_inputs(name):
            assert maximal(f).values.tobytes() == maximal_whole_grid(f).tobytes()


def test_maximal_keeps_its_chunks_once_it_stops_bounding():
    # normal values keep every block of the first bounded length (n / 4), so
    # no later length is bounded: each w from _BOUND_FROM on is one pass over
    # the whole grid, and each w up to the chunk still goes one chunk at a time
    chunk, n = 64, 2**12
    f = GridFunction(0, 12, RNG.standard_normal(n))
    want = maximal_whole_grid(f).tobytes()
    sizes, runs = {}, []
    real_max, real_runs = operators._trailing_max, operators._open_runs

    def spy_max(s, spare, w):
        sizes.setdefault(w, []).append(s.size)
        return real_max(s, spare, w)

    def spy_runs(bound, low):
        runs.append(real_runs(bound, low))
        return runs[-1]

    with mock.patch.object(operators, "_MAX_CHUNK", chunk), mock.patch.object(operators, "_trailing_max", spy_max), \
            mock.patch.object(operators, "_open_runs", spy_runs):
        assert maximal(f).values.tobytes() == want
    assert runs == [None]
    for w in (operators._BOUND_FROM << k for k in range(4)):  # 128 .. n / 4
        assert sizes[w] == [n]
    for w in (2**k for k in range(1, chunk.bit_length())):
        assert len(sizes[w]) == n // chunk and max(sizes[w]) <= chunk + w - 1


@settings(max_examples=120, deadline=None)
@given(chunk=st.integers(1, 40), bound_from=st.sampled_from([8, 32, operators._BOUND_FROM]),
       L=st.integers(0, 1), s=st.integers(0, 8),
       kind=st.sampled_from(["zero", "normal", "cauchy", "spikes", "fit"]), seed=st.integers(0, 2**32 - 1))
def test_maximal_in_small_chunks_matches_the_window_enumeration(chunk, bound_from, L, s, kind, seed):
    # a small chunk sends small grids down the chunked and bounded paths,
    # with every w up to the chunk and chunks that do not divide the grid;
    # "fit" is an exponent fit's f, |x|^(delta - 1) on the cells of (0, 1);
    # "zero" leaves no block that a window can raise
    rng = np.random.default_rng(seed)
    n = 2 ** (L + s)
    if kind == "fit":
        edges = GridFunction(L, s, np.zeros(n), origin=-L).cell_edges()
        vals = np.zeros(n)
        vals[n - 2**s :] = power_cell_averages(edges[n - 2**s :], rng.choice(HALF_OCTAVE_LADDER) - 1)
    else:
        vals = {"zero": np.zeros(n), "normal": rng.standard_normal(n), "cauchy": rng.standard_cauchy(n),
                "spikes": np.where(rng.uniform(size=n) < 0.05, 1e12, 1e-6)}[kind]
    f = GridFunction(L, s, vals, origin=-L)
    with mock.patch.object(operators, "_MAX_CHUNK", chunk), mock.patch.object(operators, "_BOUND_FROM", bound_from):
        got = maximal(f).values.tobytes()
    assert got == maximal_whole_grid(f).tobytes()
    want = np.maximum(np.abs(f.values), maximal_oracle(f, [2**m for m in range(1, L + s + 1)]))
    assert got == want.tobytes()


def supported_values(rng, n, a, b, kind):
    """Values on n cells, nonzero only in [a, b) (except where `kind` makes
    a cell of it 0), signed zeros elsewhere."""
    vals = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0)
    inner = {"normal": rng.standard_normal(b - a), "cauchy": rng.standard_cauchy(b - a),
             "spike": np.zeros(b - a), "holes": np.where(rng.uniform(size=b - a) < 0.5, -0.0, 1.0)}[kind]
    inner[0] = inner[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)  # the support's end cells
    vals[a:b] = inner
    return vals


@settings(max_examples=150, deadline=None)
@given(chunk=st.integers(1, 40), bound_from=st.sampled_from([8, 32, operators._BOUND_FROM]),
       s=st.integers(0, 9), kind=st.sampled_from(["normal", "cauchy", "spike", "holes", "zero"]),
       data=st.data())
def test_maximal_over_the_support_matches_the_whole_grid_pass(chunk, bound_from, s, kind, data):
    # supports [a, b) of any placement, a one-cell spike among them, and
    # -0.0 or +0.0 outside; a small chunk sends small grids down every path
    n = 2**s
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a + 1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0) if kind == "zero" else supported_values(rng, n, a, b, kind)
    f = GridFunction(0, s, vals, origin=-1)
    for patch in (False, True):
        with mock.patch.object(operators, "_MAX_CHUNK", chunk if patch else operators._MAX_CHUNK), \
                mock.patch.object(operators, "_BOUND_FROM", bound_from if patch else operators._BOUND_FROM):
            assert maximal(f).values.tobytes() == maximal_whole_grid(f).tobytes()


@pytest.mark.parametrize("kind", ["normal", "spike", "holes"])
def test_maximal_over_an_unaligned_support_above_two_chunks(kind):
    # 2^17 cells: the bounded passes, their fallback and the chunks, with a
    # support whose ends lie inside blocks and chunks
    rng = np.random.default_rng(["normal", "spike", "holes"].index(kind))
    n = 2**17
    for a, b in ((12345, 12346), (12345, 98765), (0, 5), (n - 7, n), (3, n - 1)):
        f = GridFunction(0, 17, supported_values(rng, n, a, b, kind))
        assert maximal(f).values.tobytes() == maximal_whole_grid(f).tobytes()


def test_maximal_of_zero_returns_the_absolute_values():
    f = GridFunction(0, 6, np.where(np.arange(64) % 3 == 0, -0.0, 0.0))
    out = maximal(f).values
    assert out.tobytes() == np.zeros(64).tobytes() == maximal_whole_grid(f).tobytes()


def trailing_max_oracle(s, w):
    rows = s.reshape(-1, s.shape[-1])
    out = [[row[max(0, x - w + 1) : x + 1].max() for x in range(row.size)] for row in rows]
    return np.array(out).reshape(s.shape)


def test_trailing_max_acts_row_wise_on_the_last_axis():
    rows = RNG.standard_normal((5, 37))
    for w in range(1, 129):
        got = _trailing_max(rows.copy(), np.empty_like(rows), w)
        assert got.tobytes() == trailing_max_oracle(rows, w).tobytes()


@settings(max_examples=150, deadline=None)
@given(lead=st.sampled_from([(), (3,), (2, 3)]), n=st.integers(1, 70),
       w=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
def test_trailing_max_property(lead, n, w, seed):
    # w from 1 to 128, so both w > n and w not dividing n occur
    s = np.random.default_rng(seed).standard_normal(lead + (n,))
    got = _trailing_max(s.copy(), np.full_like(s, np.nan), w)
    assert got.shape == s.shape
    assert got.tobytes() == trailing_max_oracle(s, w).tobytes()


# ---- dyadic square function ----


def test_dyadic_square_constant():
    f = GridFunction(0, 6, np.full(64, -2.0))
    assert np.allclose(dyadic_square(f).values, 2.0, atol=1e-14)


def test_dyadic_square_haar():
    f = GridFunction(0, 7, np.concatenate([np.ones(64), -np.ones(64)]))
    assert np.allclose(dyadic_square(f).values, 1.0, atol=1e-14)


def test_dyadic_square_parseval():
    for _ in range(25):
        f = GridFunction(0, 7, RNG.standard_normal(128))
        sd = dyadic_square(f)
        lhs = np.sum(sd.values**2) / 128
        rhs = np.sum(f.values**2) / 128
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("L, s", [(0, 0), (0, 1), (0, 2), (0, 3), (0, 9), (1, 18)],
                         ids=["0", "1", "2", "3", "9", "18-L1"])
def test_dyadic_square_matches_the_mean_per_level_bytewise(L, s):
    # the size-2 level is taken as (v[0::2] + v[1::2]) / 2 and the size-1
    # level is v, not mean(axis=1), and the sum runs down the tree; 1e150
    # keeps the squared root average finite
    n = 2 ** (L + s)
    signed_zeros = np.where(RNG.uniform(size=n) < 0.5, -0.0, 0.0)
    subnormal = 5e-324 * RNG.integers(-(2**20), 2**20, size=n)
    mixed = np.where(RNG.uniform(size=n) < 0.5, signed_zeros, subnormal)
    for vals in (RNG.standard_normal(n), RNG.uniform(size=n) ** 7,
                 1e150 * RNG.standard_normal(n), 1e-300 * RNG.standard_normal(n),
                 signed_zeros, subnormal, mixed):
        f = GridFunction(L, s, vals, origin=-L)
        assert dyadic_square(f).values.tobytes() == dyadic_square_mean_per_level(f).tobytes()


@settings(max_examples=200, deadline=None)
@given(s=st.integers(0, 10), kind=st.sampled_from(["normal", "cauchy", "spike", "holes", "zero"]),
       data=st.data())
def test_dyadic_square_over_the_support_matches_the_mean_per_level(s, kind, data):
    # unaligned supports [a, b), zero prefixes and suffixes of -0.0 and
    # +0.0, a one-cell spike, -0.0 cells inside, and all-zero input
    n = 2**s
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a + 1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0) if kind == "zero" else supported_values(rng, n, a, b, kind)
    f = GridFunction(0, s, vals, origin=-1)
    assert dyadic_square(f).values.tobytes() == dyadic_square_mean_per_level(f).tobytes()


def test_dyadic_square_over_the_fit_support_matches_the_mean_per_level():
    for name in ("sd-p3", "sd-p1.5"):
        for f in fit_inputs(name):
            assert dyadic_square(f).values.tobytes() == dyadic_square_mean_per_level(f).tobytes()


# ---- psi kernel ----


def test_psi_exact_rational_moments():
    assert _even_poly_integral(2) == Fraction(16, 15)
    assert _even_poly_integral(3) == Fraction(32, 35)
    assert PSI.kappa == Fraction(7, 6)
    u = np.linspace(-1, 1, 2001)
    trapz = np.trapezoid(PSI(u), u)
    assert abs(trapz) < 1e-12
    assert PSI.cumulative(1.0) == pytest.approx(0.0, abs=1e-15)
    assert np.all(PSI(np.array([-1.2, 1.2])) == 0.0)


def test_psi_convolution_kills_constants():
    f = GridFunction(0, 6, np.full(64, 4.0))
    assert abs(psi_convolve_at(f, 0.5, 0.2)) <= 1e-9
    g = g_psi(f)
    interior = slice(16, 48)
    # away from the boundary all ladder scales see a constant
    small_t_part = np.sqrt(np.maximum(g.values[interior] ** 2, 0.0))
    assert np.all(small_t_part <= 4.0 * np.sqrt(np.log(2) * 6) * 0.55)


def test_psi_grid_convolution_matches_pointwise():
    f = GridFunction(0, 6, RNG.standard_normal(64))
    for t in (0.05, 0.21, 0.9):
        grid = psi_convolve_grid(f, t)
        point = np.array([psi_convolve_at(f, float(y), t) for y in f.cell_centers()])
        assert np.allclose(grid, point, atol=1e-13)


@pytest.mark.parametrize("nodes_per_box", [1, 2])
def test_psi_engine_nodes_match_pointwise(nodes_per_box):
    for label, f in corpus_functions(seed=12, resolution_s=6, n_random=2):
        eng = psi_engine(f, nodes_per_box)
        tol = 1e-14 * float(np.sum(np.abs(f.values))) * float(f.cell_width)
        want = [abs(psi_convolve_at(f, y, t)) for y, t in zip(eng.node_ys.tolist(), eng.node_ts.tolist())]
        assert np.max(np.abs(eng.node_vals - want)) <= tol, label


def test_s_psi_zero_and_jump_locality():
    zero = GridFunction(0, 6, np.zeros(64))
    assert np.all(s_psi(zero, 1.0).values == 0.0)

    # chi[0, 1/2) on [0, 4): the widest t of the ladder, 2^(3/2), reaches
    # from the jumps to x < 3.4; psi has compact support, so farther cells vanish
    vals = np.zeros(64)
    vals[:8] = 1.0
    f = GridFunction(2, 4, vals)
    g = g_psi(f)
    centres = f.cell_edges()[:-1] + float(f.cell_width) / 2
    assert g.values[6:10].min() > 0
    assert np.sum(centres > 3.4) == 10 and np.all(g.values[centres > 3.4] == 0.0)


def test_g_psi_rejects_a_one_cell_grid():
    with pytest.raises(ValueError, match="at least two cells"):
        g_psi(GridFunction(0, 0, np.ones(1)))


def test_s_psi_monotone_in_beta():
    f = GridFunction(0, 6, RNG.standard_normal(64))
    s1 = s_psi(f, 1.0).values
    s4 = s_psi(f, 4.0).values
    assert np.all(s1 <= s4 + 1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("samples", [1, 2, 3, 33, 100, 4001])
def test_psi_holder_seminorm_matches_per_lag_loop_bytewise(alpha, samples, monkeypatch):
    # 4001 samples give 4000 lags, 125 whole chunks of 32: only the smaller
    # grids reach a partial last chunk, so the test sets the grid size.
    # holder_seminorm divides the per-lag peaks by |u - v|^(1/2); the other
    # exponents move the lag that attains the sup, so the quotient's max
    # checks the chunked peaks at three lags
    monkeypatch.setattr(operators, "_HOLDER_SAMPLES", samples)
    u, peaks = PSI._holder_peaks()
    spans = np.array([(u[lag] - u[0]) ** alpha for lag in range(1, samples)])
    got = float(np.max(peaks / spans, initial=0.0)) if alpha != 0.5 else PSI.holder_seminorm()
    assert np.float64(got).tobytes() == np.float64(holder_seminorm_per_lag(PSI, alpha, samples)).tobytes()


def test_psi_holder_seminorm_positive():
    rho = PSI.holder_seminorm()
    assert rho > 0
    # the sampled difference quotient can never exceed the reported sup
    u = np.linspace(-1, 1, 101)
    vals = PSI(u)
    quot = np.abs(vals[1:] - vals[:-1]) / (u[1] - u[0]) ** 0.5
    assert quot.max() <= rho + 1e-9


# ---- Hilbert transform ----


def test_hilbert_closed_form_indicator():
    vals = np.zeros(256)
    vals[96:160] = 1.0  # [-1, 1) inside [-4, 4)
    f = GridFunction(3, 5, vals, origin=-4)
    hf = hilbert(f)
    xs = f.cell_centers()
    h = 1 / 32
    mask = (np.abs(xs - 1) >= 8 * h) & (np.abs(xs + 1) >= 8 * h)
    exact = np.log(np.abs((xs + 1) / (xs - 1)))
    rel = np.abs(hf.values[mask] - exact[mask]) / np.abs(exact[mask])
    assert np.max(rel) <= 0.02


def test_hilbert_odd_symmetry():
    vals = RNG.standard_normal(64)
    f = GridFunction(0, 6, vals)
    g = GridFunction(0, 6, vals[::-1].copy())  # reflection about the domain center
    for delta in (1 / 64, 5 / 64):
        tf = hilbert_truncated(f, delta).values
        tg = hilbert_truncated(g, delta).values
        assert np.allclose(tg[::-1], -tf, atol=1e-12)


def test_hilbert_kernel_cancellation():
    # int over r < |u| < R of du/u vanishes: the assembled kernel is odd and
    # sums to zero exactly, and a symmetric f gives an antisymmetric image
    kernel = _hilbert_kernel(_log_table(64, 1 / 64), 1 / 64, 3 / 64)
    assert np.allclose(kernel + kernel[::-1], 0.0, atol=1e-15)
    assert abs(np.sum(kernel)) <= 1e-13

    f = GridFunction(0, 6, np.full(64, 2.0))
    tf = hilbert_truncated(f, 3 / 64).values
    assert np.allclose(tf[::-1], -tf, atol=1e-12)


@pytest.mark.parametrize("L, s", [(0, 0), (0, 3), (1, 6), (0, 10), (1, 19)])
def test_hilbert_kernel_from_log_table_is_bytewise_the_direct_sum(L, s):
    n, h = 2 ** (L + s), 2.0**-s
    table = _log_table(n, h)
    ladder = [h * 2**m for m in range(L + s + 2)]
    others = [f * h for f in (1e-9, 0.1, 0.3, 0.5, 0.7, 1.3, 2.5, 3.0, 7.77)] + [1 / 3, 0.4, n * h + 0.1]
    for delta in ladder + others:
        want = hilbert_kernel_direct(n, h, delta)
        assert _hilbert_kernel(table, h, delta).tobytes() == want.tobytes(), delta / h


@pytest.mark.parametrize("L, s, origin", [(0, 0, 0), (0, 6, 0), (1, 12, -1), (0, 13, 0)])
def test_hilbert_max_is_bytewise_the_per_delta_loop(L, s, origin):
    # 2^13 cells takes the FFT path
    f = GridFunction(L, s, RNG.standard_normal(2 ** (L + s)), origin=origin)
    assert hilbert_max(f).values.tobytes() == hilbert_max_per_delta(f).tobytes()


def support_inputs(n: int) -> dict[str, np.ndarray]:
    """Inputs on n cells by the cells their nonzero values span: every cell,
    the right half (the exponent fits' f), the left half, an interior
    block of n/2 + 2 cells, two cells, the first or the last cell, none."""
    full = np.random.default_rng(n).standard_normal(n)

    def only(a, b):
        v = np.zeros(n)
        v[a:b] = full[a:b]
        return v

    return {"full": full, "right half": only(n // 2, n), "left half": only(0, n // 2),
            "block": only(n // 4, 3 * n // 4 + 2), "two cells": only(3, 5),
            "first cell": only(0, 1), "last cell": only(n - 1, n), "zero": np.zeros(n)}


@pytest.mark.parametrize("L, s", [(0, 6), (0, 12), (1, 11), (0, 13), (1, 12)])
def test_hilbert_over_the_support_matches_the_whole_kernel(L, s):
    # 4096 cells and fewer take np.convolve, 8192 an FFT; at 8192 the block
    # and the two cells need n + m - 1 points, one more than 3 * 2^12 and 2^13
    for label, vals in support_inputs(2 ** (L + s)).items():
        f = GridFunction(L, s, vals, origin=-L)
        h = float(f.cell_width)
        for delta in (h, 3 * h, 0.3):
            want = hilbert_full_kernel(f, delta)
            tol = 1e-14 * np.max(np.abs(want))
            assert np.max(np.abs(hilbert_truncated(f, delta).values - want)) <= tol, (label, delta)
            if delta == h:
                assert np.max(np.abs(hilbert(f).values - want)) <= tol, label
        want = np.zeros(f.ncells)
        for delta in truncation_ladder(f):
            np.maximum(want, np.abs(hilbert_full_kernel(f, float(delta))), out=want)
        assert np.max(np.abs(hilbert_max(f).values - want)) <= 1e-14 * np.max(want), label


def test_hilbert_bound_to_a_grid_is_bytewise_hilbert():
    for s in (6, 13):
        grid = GridFunction(1, s, np.zeros(2 ** (s + 1)), origin=-1)
        op = hilbert_on(grid)
        for _ in range(2):
            f = grid.with_values(RNG.standard_normal(grid.ncells))
            assert op(f).values.tobytes() == hilbert(f).values.tobytes()
        # the spectrum kept for one support must not serve another
        inputs = support_inputs(grid.ncells)
        f1, f2 = grid.with_values(inputs["right half"]), grid.with_values(inputs["block"])
        for f in (f1, f2, f1):
            assert op(f).values.tobytes() == hilbert(f).values.tobytes()
    with pytest.raises(ValueError, match="different grids"):
        op(GridFunction(0, 6, np.ones(64)))


def test_hilbert_max_dominates_every_truncation():
    f = GridFunction(0, 6, RNG.standard_normal(64))
    hm = hilbert_max(f).values
    for delta in truncation_ladder(f):
        assert np.all(hm >= np.abs(hilbert_truncated(f, float(delta)).values) - 1e-12)


def test_hilbert_rejects_bad_delta():
    f = GridFunction(0, 4, np.ones(16))
    for delta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            hilbert_truncated(f, delta)


def test_fft_and_direct_convolution_agree():
    # the large-N fast path must agree with the direct sum; 2n+1 is the
    # Hilbert kernel's length
    from sharpwt.operators import _conv_wide

    for n in (4097, 5000, 8192):
        for k in (301, 2 * n - 1, 2 * n + 1):
            vals = RNG.standard_normal(n)
            kernel = RNG.standard_normal(k)
            start = (k - 1) // 2
            direct = np.convolve(vals, kernel)[start : start + n]
            fft = _conv_wide(vals, kernel)
            assert fft.shape == direct.shape
            assert np.max(np.abs(fft - direct)) <= 1e-13 * np.max(np.abs(direct)), (n, k)


def test_operators_run_without_scipy():
    src = str(Path(sharpwt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import sharpwt\n"
        "from sharpwt.gridfn import GridFunction\n"
        "from sharpwt.operators import g_psi, hilbert\n"
        "f = GridFunction(0, 13, np.random.default_rng(0).standard_normal(2**13))\n"
        "hilbert(f)\n"
        "g_psi(f)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
