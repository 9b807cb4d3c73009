"""Stopping-time decomposition: construction examples, the four verified
properties, sparse sets, the child walk against its dense oracle, which
medians the construction reads, and the averaging operator against its
direct-sum oracle and, bytewise, its exact-Fraction oracle."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import a_gamma_per_cube, dense_children
from sharpwt.decomp import (LAMBDA_N, Decomposition, StopCube, _select_children, a_gamma, decompose,
                            verify_decomposition)
from sharpwt.gridfn import GridFunction, SortedBlocks, prefix_sums

RNG = np.random.default_rng(99)


def test_constant_gives_empty_collection():
    f = GridFunction(0, 8, np.full(256, 3.0))
    d = decompose(f)
    assert d.generations == []
    rep = verify_decomposition(f, d)
    assert rep["passed"]
    assert rep["i_pointwise"]["worst_slack"] <= 0.0


def test_single_block_indicator_first_generation():
    # f = chi_[0, 2^-4) on [0,1) at s=8: tau = 0, E = the block, and the
    # unique maximal dyadic interval of density > 1/2 is the block itself
    n = 256
    vals = np.zeros(n)
    vals[: n // 16] = 1.0
    f = GridFunction(0, 8, vals)
    d = decompose(f)
    assert d.root_median == 0.0
    assert len(d.generations) >= 1
    gen1 = d.generations[0]
    assert [(sc.a, sc.b) for sc in gen1] == [(0, n // 16)]
    assert verify_decomposition(f, d)["passed"]


def test_alternating_function_verifies():
    f = GridFunction(0, 8, np.where(np.arange(256) % 2 == 0, 1.0, -1.0))
    d = decompose(f)
    rep = verify_decomposition(f, d)
    assert rep["passed"]


def test_random_corpus_properties_and_depth():
    for _ in range(100):
        f = GridFunction(0, 10, RNG.standard_normal(1024))
        d = decompose(f)
        rep = verify_decomposition(f, d)
        assert rep["passed"], rep
        assert len(d.generations) <= 10


def test_sparse_sets_disjoint_and_large():
    for _ in range(50):
        f = GridFunction(0, 9, RNG.standard_cauchy(512))
        d = decompose(f)
        spans = []
        for k, gen in enumerate(d.generations):
            nxt = d.generations[k + 1] if k + 1 < len(d.generations) else []
            for sc in gen:
                assert 2 * sc.e_cells >= sc.ncells
                covered = np.zeros(sc.ncells, dtype=bool)
                for c in nxt:
                    lo, hi = max(sc.a, c.a), min(sc.b, c.b)
                    if hi > lo:
                        covered[lo - sc.a : hi - sc.a] = True
                e_cells = np.flatnonzero(~covered) + sc.a
                assert e_cells.size == sc.e_cells
                spans.append(set(e_cells.tolist()))
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                assert not (a & b), "sparse sets intersect"


def test_osc_coeff_is_on_dyadic_parent():
    from sharpwt.gridfn import local_osc

    f = GridFunction(0, 8, RNG.standard_normal(256))
    d = decompose(f)
    for sc in d.all_cubes():
        size2 = 2 * sc.ncells
        qa = (sc.a // size2) * size2
        assert sc.osc_coeff == local_osc(f, (qa, qa + size2), Fraction(1, 8))


@settings(max_examples=80, deadline=None)
@given(k=st.integers(0, 10), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from((0.0, 0.2, 0.45, 0.55, 0.8, 1.0)), runs=st.booleans())
def test_select_children_matches_dense_oracle(k, seed, density, runs):
    # cellwise masks, or runs of equal cells between cuts at any cell,
    # mostly off the dyadic grid; density >= 1/2 starts the runs masked
    rng = np.random.default_rng(seed)
    m = 2**k
    if runs:
        cuts = np.sort(rng.integers(0, m + 1, size=6))
        mask = (np.searchsorted(cuts, np.arange(m), side="right") % 2 == 1) ^ (density >= 0.5)
    else:
        mask = rng.random(m) < density
    assert _select_children(prefix_sums(mask, np.intp).tolist(), 0, m) == dense_children(mask)


def singular_corpus_values(rng, n, c=None):
    """Cell averages of |x - c|^a on n cells of [0, 1), a in (-0.9, -0.2),
    plus 0.1 noise, as in the benchmark's decomposition corpus; c is a
    random cell edge unless given.  Trees nest several generations."""
    edges = np.arange(n + 1) / n
    a = float(rng.uniform(-0.9, -0.2))
    c = int(rng.integers(n)) / n if c is None else c
    u = edges - c
    anti = np.sign(u) * np.abs(u) ** (a + 1.0) / (a + 1.0)
    return np.diff(anti) * n + 0.1 * rng.standard_normal(n)


@pytest.mark.parametrize("seed", [8, 4, 3])
@pytest.mark.parametrize("kind", ["normal", "singular"])
def test_child_medians_only_for_parents_with_room(monkeypatch, kind, seed):
    """A cube's median is read only when it is processed as a parent, that
    is when floor(LAMBDA_N |P|) >= 1; the root's is read in any case."""
    asked = []
    medians = SortedBlocks.medians

    def spy(self, size):
        asked.append(size)
        return medians(self, size)

    monkeypatch.setattr(SortedBlocks, "medians", spy)
    lam = LAMBDA_N
    rng = np.random.default_rng([23, len(kind), seed])
    n, child_sizes = 1024, set()
    for _ in range(20):
        values = rng.standard_normal(n) if kind == "normal" else singular_corpus_values(rng, n)
        f = GridFunction(0, 10, values)
        asked.clear()
        d = decompose(f)
        assert asked[0] == n
        assert all((lam.numerator * size) // lam.denominator >= 1 for size in asked[1:]), asked
        child_sizes.update(sc.ncells for sc in d.all_cubes())
    # the property is not vacuous: some children were too small to be parents
    assert any((lam.numerator * size) // lam.denominator == 0 for size in child_sizes)


def test_a_gamma_empty_and_single_cube():
    f = GridFunction(0, 8, np.full(256, 1.0))
    d = decompose(f)  # empty
    assert np.all(a_gamma(f, d).values == 0.0)

    # one synthetic stopping cube [0, 1/4) and f = 1: 45Q, clipped to the
    # grid, holds all 256 cells, and its average divides by 45 * 64 cells
    d.generations = [[StopCube(a=0, b=64, osc_coeff=0.0, parent_ref=0, e_cells=64)]]
    out = a_gamma(f, d)
    assert np.allclose(out.values[:64], (256 / (45 * 64)) ** 2)
    assert np.all(out.values[64:] == 0.0)


def a_gamma_oracle(f, d):
    h = float(f.cell_width)
    edges = f.cell_edges()
    out = np.zeros(f.ncells)
    for sc in d.all_cubes():
        lo = float(f.origin) + (sc.a + sc.b) / 2 * h - 45 * (sc.b - sc.a) / 2 * h
        hi = lo + 45 * (sc.b - sc.a) * h
        total = 0.0
        for i in range(f.ncells):
            seg = min(hi, edges[i + 1]) - max(lo, edges[i])
            if seg > 0:
                total += abs(f.values[i]) * seg
        avg = total / (45 * (sc.b - sc.a) * h)
        out[sc.a : sc.b] += avg * avg
    return out


def test_a_gamma_matches_direct_summation():
    for _ in range(10):
        f = GridFunction(0, 6, RNG.standard_normal(64))
        d = decompose(f)
        if not d.generations:
            continue
        assert np.allclose(a_gamma(f, d).values, a_gamma_oracle(f, d), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("L,origin", [(0, 0), (0, -1), (1, 0), (1, -1)])
def test_a_gamma_is_bytewise_the_exact_fraction_oracle(L, origin):
    # hand-placed cubes: one cell at either end and inside, 45Q clipped at
    # the left, at the right and at both ends, and unclipped; then
    # decompositions of singular functions, whose trees reach one-cell cubes
    s = 7 - L
    n = 2 ** (L + s)
    rng = np.random.default_rng([L, -origin])
    f = GridFunction(L, s, rng.standard_normal(n) * np.geomspace(1e-3, 1.0, n), origin)
    spans = [(0, 1), (n - 1, n), (n // 2, n // 2 + 1), (0, 2), (n - 4, n), (0, n // 2),
             (n // 2 - 1, n // 2), (n // 2 - 2, n // 2)]
    d = Decomposition(f, 0.0, [[StopCube(a, b, 0.0, -1) for a, b in spans]])
    assert a_gamma(f, d).values.tobytes() == a_gamma_per_cube(f, d).tobytes()
    one_cell = 0
    for _ in range(20):
        c = float(rng.uniform(0, 2.0**L))
        g = f.with_values(singular_corpus_values(rng, n, c / 2.0**L))
        d = decompose(g)
        one_cell += sum(sc.ncells == 1 for sc in d.all_cubes())
        assert a_gamma(g, d).values.tobytes() == a_gamma_per_cube(g, d).tobytes()
    assert one_cell > 0


def test_decomposition_json_roundtrip(tmp_path):
    f = GridFunction(0, 8, RNG.standard_normal(256))
    d = decompose(f)
    path = tmp_path / "tree.json"
    with open(path, "w") as fh:
        json.dump(d.to_json(), fh)
    with open(path) as fh:
        d2 = Decomposition.from_json(json.load(fh))
    assert d2.root_median == d.root_median
    assert len(d2.generations) == len(d.generations)
    for g1, g2 in zip(d.generations, d2.generations):
        assert [(s.a, s.b, s.osc_coeff, s.e_cells) for s in g1] == [
            (s.a, s.b, s.osc_coeff, s.e_cells) for s in g2
        ]
    assert verify_decomposition(d2.f, d2)["passed"]


def test_verifier_reports_failure_on_tampered_tree():
    f = GridFunction(0, 8, RNG.standard_normal(256))
    d = decompose(f)
    if not d.generations:
        pytest.skip("empty decomposition for this draw")
    d.generations[0][0].osc_coeff = 0.0  # destroy a coefficient
    d.root_median += 50.0                # and the root median
    rep = verify_decomposition(f, d)
    assert not rep["i_pointwise"]["passed"]
    assert not rep["passed"]


def _hand_tree(first, second):
    """A tree on f = 0 over 16 cells with the given (a, b, parent, e_cells)
    cubes in its two generations; f = 0 makes (i) hold for any cubes, so only
    the structural checks can fail."""
    f = GridFunction(0, 4, np.zeros(16))
    gens = [[StopCube(a=a, b=b, osc_coeff=0.0, parent_ref=p, e_cells=e) for a, b, p, e in gen]
            for gen in (first, second)]
    return f, Decomposition(f, 0.0, gens)


VALID_FIRST = [(0, 4, -1, 2), (8, 12, -1, 4)]
VALID_SECOND = [(0, 2, 0, 2)]
CHECKS = ("ii_disjoint", "iii_nested", "iv_half_measure", "sparse_sets", "i_pointwise")


@pytest.mark.parametrize("first, second, failing", [
    (VALID_FIRST, VALID_SECOND, set()),
    # two overlapping cubes in one generation
    (VALID_FIRST + [(8, 10, -1, 2)], VALID_SECOND, {"ii_disjoint"}),
    # a child outside every parent
    (VALID_FIRST, VALID_SECOND + [(12, 14, 1, 2)], {"iii_nested"}),
    # a child covering more than half its parent; |E| = |Q| - |Omega cap Q|
    # is then below |Q|/2, so the sparse-set bound fails with it
    (VALID_FIRST, [(0, 3, 0, 3)], {"iv_half_measure", "sparse_sets"}),
    # a stored sparse-set measure off by one
    ([(0, 4, -1, 2), (8, 12, -1, 3)], VALID_SECOND, {"sparse_sets"}),
    ([(0, 4, -1, 3), (8, 12, -1, 4)], VALID_SECOND, {"sparse_sets"}),
])
def test_verifier_flags_exactly_the_broken_property(first, second, failing):
    f, d = _hand_tree(first, second)
    rep = verify_decomposition(f, d)
    assert {k for k in CHECKS if not rep[k]["passed"]} == failing
    assert rep["passed"] == (not failing)
