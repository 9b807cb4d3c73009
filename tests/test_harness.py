"""Harness: fit mechanics, determinism, emission round-trips, and the scan
report contract."""

import json
import os
import shutil
import subprocess
from dataclasses import asdict

import numpy as np
import pytest
from oracles import exponent_experiment_full_grid, extremal_pair_full_grid

import sharpwt.harness
from sharpwt.gridfn import GridFunction
from sharpwt.harness import (
    ACCEPTANCE_RUNS,
    ExperimentSpec,
    _extremal_pair,
    _git_describe,
    _corpus_engines,
    corpus_functions,
    corpus_weights,
    emit,
    exponent_experiment,
    ratio_scan,
    refine,
)
from sharpwt.weights import Weight, ainfty_fujii, ap_characteristic


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("maximal", 2.0, (0.5, 0.25, 0.125), 8)  # 3 points
    with pytest.raises(ValueError):
        ExperimentSpec("maximal", 2.0, (0.25, 0.5, 0.125, 0.0625), 8)  # not decreasing
    with pytest.raises(ValueError, match="unknown operator"):
        ExperimentSpec("nope", 2.0, (0.5, 0.25, 0.125, 0.0625), 8)


@pytest.mark.parametrize("family", ["dual", "Dual-Pair", ""])
def test_spec_rejects_an_unknown_weight_family(family):
    # each ran the buckley family: slope 0.33699 on a hilbert p = 3, s = 8 fit
    with pytest.raises(ValueError, match="unknown weight family"):
        ExperimentSpec("hilbert", 3.0, (0.5, 0.25, 0.125, 0.0625), 8, weight_family=family)


@pytest.mark.parametrize("deltas", [(0.5, np.nan, 0.1, 0.05), (np.inf, 0.5, 0.1, 0.05),
                                    (0.5, 0.25, 0.125, np.nan), (-np.inf, 0.5, 0.25, 0.125)])
def test_spec_rejects_a_ladder_delta_that_is_not_finite(deltas):
    # a NaN failed late, as "grid values must be finite", and an inf first
    # delta as the |x|^a integrability message
    with pytest.raises(ValueError, match="ladder deltas must be finite"):
        ExperimentSpec("sd", 2.0, deltas, 8)


@pytest.mark.parametrize("s", [-1, -3])
def test_spec_rejects_a_negative_resolution(s):
    # cells of width 2 or more leave f_delta no cell inside (0, 1)
    with pytest.raises(ValueError, match="resolution_s must be >= 0"):
        ExperimentSpec("sd", 2.0, (0.5, 0.25, 0.125, 0.0625), s)


@pytest.mark.parametrize("p", [np.nan, np.inf, 1.0])
def test_spec_rejects_a_p_that_is_not_finite_and_above_one(p):
    # p = nan used to fail only at the first grid, as "grid values must be finite"
    with pytest.raises(ValueError, match="p must be finite and > 1"):
        ExperimentSpec("sd", p, (0.5, 0.25, 0.125, 0.0625), 8)


def test_ratio_monotone_down_the_ladder():
    for op in ("maximal", "sd", "hilbert"):
        spec = ExperimentSpec(op, 2.0, (0.5, 0.25, 0.125, 0.0625), 10)
        r = exponent_experiment(spec)
        ratios = [pt.ratio for pt in r.points]
        assert all(b >= a * (1 - 0.01) for a, b in zip(ratios, ratios[1:])), (op, ratios)


def test_fit_r2_reported():
    r = exponent_experiment(ExperimentSpec("maximal", 2.0, (0.5, 0.25, 0.125, 0.0625), 10))
    assert 0.0 <= r.r2 <= 1.0


def test_flag_on_deep_ladder():
    deltas = tuple(2.0**-k for k in range(1, 7))
    r = exponent_experiment(ExperimentSpec("maximal", 2.0, deltas, 8))
    assert r.points[-1].flagged  # delta = 1/64 at s = 8 is resolution-starved
    assert not r.points[0].flagged


def test_acceptance_runs_registry_shape():
    assert set(ACCEPTANCE_RUNS) == {
        "maximal-p2", "maximal-p4", "sd-p3", "sd-p1.5", "hilbert-p3", "gtilde-p3"
    }
    for name, (spec, target, (lo, hi)) in ACCEPTANCE_RUNS.items():
        assert lo < target + 0.101 and lo < hi
        assert len(spec.deltas) >= 4


def test_determinism_byte_identical(tmp_path):
    spec = ExperimentSpec("sd", 2.0, (0.5, 0.25, 0.125, 0.0625), 9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(exponent_experiment(spec), str(p1))
    emit(exponent_experiment(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    r1 = ratio_scan("4.3", seed=5, n_random=8)
    r2 = ratio_scan("4.3", seed=5, n_random=8)
    q1, q2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    emit(r1, str(q1))
    emit(r2, str(q2))
    assert q1.read_bytes() == q2.read_bytes()


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_git_describe_names_the_source_tree_not_the_working_directory(tmp_path, monkeypatch):
    src = os.path.dirname(os.path.abspath(sharpwt.harness.__file__))
    want = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                          capture_output=True, text=True).stdout.strip() or "unknown"
    monkeypatch.chdir(tmp_path)
    assert _git_describe() == want


def test_emit_csv_shape(tmp_path):
    spec = ExperimentSpec("sd", 2.0, tuple(2.0**-k for k in range(1, 7)), 8)
    result = exponent_experiment(spec)
    path = tmp_path / "fit.csv"
    emit(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "delta,ap_char,ratio,log_ap,log_ratio"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) == 6
    assert any("slope=" in ln for ln in footer)
    assert footer[1] == "# spec: op=sd p=2.0 s=8 L=1 family=buckley"  # no seed: nothing reads one


def test_emit_json_roundtrip(tmp_path):
    spec = ExperimentSpec("sd", 2.0, (0.5, 0.25, 0.125, 0.0625), 8)
    result = exponent_experiment(spec)
    path = tmp_path / "fit.json"
    emit(result, str(path))
    payload = json.loads(path.read_text())
    assert payload["slope"] == result.slope
    assert payload["spec"]["operator"] == "sd"
    assert "seed" not in payload["spec"]
    assert len(payload["points"]) == 4
    assert "git_describe" in payload


def test_emit_failure_surfaces_path():
    spec = ExperimentSpec("sd", 2.0, (0.5, 0.25, 0.125, 0.0625), 8)
    result = exponent_experiment(spec)
    with pytest.raises(OSError, match="no/such/dir"):
        emit(result, "no/such/dir/out.csv")


def test_corpus_sizes_and_determinism():
    fs = corpus_functions(seed=3, resolution_s=6)
    assert len(fs) == 60
    labels = [lab for lab, _ in fs]
    assert len(set(labels)) == 60
    fs2 = corpus_functions(seed=3, resolution_s=6)
    for (_, a), (_, b) in zip(fs, fs2):
        assert np.array_equal(a.values, b.values)
    ws = corpus_weights(seed=3, resolution_s=6, n=20)
    assert len(ws) == 20
    assert all(np.all(w.values > 0) for _, w in ws)


def test_refine_preserves_function():
    f = GridFunction(0, 5, np.arange(32, dtype=float))
    g = refine(f)
    assert g.resolution_s == 6
    assert g.integral_abs(0, 64) == pytest.approx(f.integral_abs(0, 32))
    assert np.all(g.values[::2] == f.values)


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError):
        ratio_scan("9.9")


def test_ratio_scan_rejects_a_negative_corpus_size():
    # n_random = -5 ran only the ten structured cases and passed
    with pytest.raises(ValueError, match="n_random must be >= 0"):
        ratio_scan("2.2", n_random=-5)
    assert len(ratio_scan("4.3", n_random=0).cases) == 10


def test_engine_memo_gives_the_bytes_of_a_fresh_build(tmp_path):
    _corpus_engines.cache_clear()
    ratio_scan("2.1", seed=9, n_random=2)
    hit = ratio_scan("2.2", seed=9, n_random=2)  # served by the engines of 2.1
    assert _corpus_engines.cache_info().hits >= 1
    _corpus_engines.cache_clear()
    fresh = ratio_scan("2.2", seed=9, n_random=2)
    a, b = tmp_path / "hit.csv", tmp_path / "fresh.csv"
    emit(hit, str(a))
    emit(fresh, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_engine_memo_keeps_one_corpus():
    ratio_scan("2.2", seed=9, n_random=2)
    ratio_scan("2.2", seed=10, n_random=2)
    assert _corpus_engines.cache_info().currsize == 1


def test_exact_scan_lemma_43():
    rep = ratio_scan("4.3", seed=1, n_random=20)
    assert rep.exact_tolerance == 1e-12
    assert rep.max_base <= 1e-12
    assert rep.passed


def test_scan_report_fields():
    rep = ratio_scan("2.2", n_random=4)
    assert rep.lemma == "2.2"
    assert rep.argmax
    assert rep.max_base > 0
    assert rep.drift == pytest.approx(rep.max_refined / rep.max_base)


def test_scans_take_a_refined_power_weights_ap_from_its_step_values():
    # a refinement that kept the PowerWeightSpec paired the step values with
    # the exact dual at s + 1: A_2 1.7239 for power-0.50-004 at s = 7 -> 8,
    # against 1.3331 for the step values
    rep = ratio_scan("5.13", seed=0, n_random=10)
    for (label, w), case in zip(corpus_weights(0, 7, n=10), rep.cases):
        step = Weight(GridFunction(0, 8, np.repeat(w.values, 2)))
        assert case.ratio_refined == ainfty_fujii(step) / ap_characteristic(step, 2.0), label


# ---- one closed form per exponent, mirrored onto the negative half ----

# p = 4 with delta = 0.6342224535750253 is a ladder point where the dual
# exponent -((1 - delta) 3) / 3 of the Buckley weight is not delta - 1
FREE_LADDER = (0.9, 0.6342224535750253, 0.3, 0.1)
FREE_SPECS = [ExperimentSpec("sd" if family == "buckley" else "hilbert", p, FREE_LADDER, s, family)
              for s in (5, 8) for p in (1.25, 4.0, 7.3) for family in ("buckley", "dual-pair")]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _closed_forms_match(spec) -> bool:
    """f, both weights and the A_p dual of every ladder point of `spec`,
    bytewise against each closed form evaluated on the whole grid."""
    grid = GridFunction(1, spec.resolution_s, np.zeros(2 ** (1 + spec.resolution_s)), origin=-1)
    edges = grid.cell_edges()
    for delta in spec.deltas:
        f, w_eval, p_eval, ap_args = _extremal_pair(spec, grid, edges, delta)
        args = ap_args()
        sigma = args["w"].sigma_values(spec.p) if args["sigma"] is None else args["sigma"]
        f0, w_eval0, p_eval0, w_axis0, sigma0 = extremal_pair_full_grid(spec, grid, edges, delta)
        want = (f0.values, w_eval0.values, p_eval0, w_axis0.values, sigma0)
        got = (f.values, w_eval.values, p_eval, args["w"].values, sigma)
        if [_bits(a) for a in got] != [_bits(a) for a in want]:
            return False
    return True


def _fit_bits(result) -> str:
    return json.dumps(asdict(result))  # repr of every float: bytewise, -0.0 apart from 0.0


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_RUNS))
def test_acceptance_fit_closed_forms_match_whole_grid_oracle(name):
    assert _closed_forms_match(ACCEPTANCE_RUNS[name][0])


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_RUNS))
def test_acceptance_fit_matches_whole_grid_oracle_bytewise(name):
    spec = ACCEPTANCE_RUNS[name][0]
    assert _fit_bits(exponent_experiment(spec)) == _fit_bits(exponent_experiment_full_grid(spec))


# L1: every fit runs on [-1, 1), the grid of level 1
@pytest.mark.parametrize("spec", FREE_SPECS,
                         ids=lambda sp: f"{sp.weight_family}-p{sp.p:g}-s{sp.resolution_s}-L1")
def test_free_fit_matches_whole_grid_oracle_bytewise(spec):
    assert _closed_forms_match(spec)
    assert _fit_bits(exponent_experiment(spec)) == _fit_bits(exponent_experiment_full_grid(spec))


def test_free_ladder_has_a_point_whose_exponents_differ_by_rounding():
    # so the table meets an f exponent and a dual exponent that only nearly agree
    delta, p = FREE_LADDER[1], 4.0
    assert -((1 - delta) * (p - 1)) / (p - 1) != delta - 1


def _mirror_one_cell_off(cells):
    """Each negative cell but the one next to the singularity reads the
    positive cell one nearer to it than its mirror image."""
    mid = cells.size // 2
    half = cells[mid:]
    cells[:mid] = np.concatenate([half[-2::-1], half[:1]])


def test_a_mirror_one_cell_off_fails_the_oracle_test(monkeypatch):
    # the evaluation weight's own check meets the mutant first: its first
    # cell is no longer its closed form's average there
    monkeypatch.setattr(sharpwt.harness, "_mirror", _mirror_one_cell_off)
    for spec in (ACCEPTANCE_RUNS["maximal-p4"][0], *FREE_SPECS):
        with pytest.raises(ValueError, match="cell 0 holds"):
            _closed_forms_match(spec)
