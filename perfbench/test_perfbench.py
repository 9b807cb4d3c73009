"""Tests of the benchmark itself: every checker rejects a perturbed value,
the tracer sees every binding and accounts self time, and a run leaves the
work tree as it found it.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workload
from sharpwt import harness, operators, weights
from sharpwt.decomp import decompose
from sharpwt.gridfn import GridFunction
from sharpwt.harness import ExperimentSpec, FitPoint, FitResult, ScanCase, ScanReport
from sharpwt.intrinsic import HolderClass, g_tilde, hat_coefficients
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RNG = np.random.default_rng(7)


def random_fn(s=6):
    return GridFunction(0, s, RNG.standard_normal(2**s))


def test_lp_checkers_reject_perturbed_values():
    f = random_fn()
    c17 = hat_coefficients(f, 0.4, 0.3, 17)
    cls = HolderClass(0.5, 17)
    lp = cls.lp_sup(c17)
    assert checks.check_lp_sup(c17, lp, "x") == []
    assert checks.check_lp_sup(c17, lp + 1e-6, "x")
    assert checks.check_dict_below_lp(cls.dict_sup(c17), lp, "x") == []
    assert checks.check_dict_below_lp(lp + 1e-6, lp, "x")
    c5 = hat_coefficients(f, 0.4, 0.3, 5)
    lp5 = HolderClass(0.5, 5).lp_sup(c5)
    assert checks.check_lattice_q5(c5, lp5, "x") == []
    assert checks.check_lattice_q5(c5, lp5 + 0.05, "x")
    assert checks.check_lattice_q5(c5, lp5 - 0.05, "x")


def test_g_tilde_checker_rejects_perturbed_values():
    f = random_fn(4)
    want = checks.g_tilde_oracle(f.values, 0, 4)
    got = g_tilde(f).values
    assert checks.check_g_tilde(got, want, "x") == []
    bumped = got.copy()
    bumped[3] += 1e-6
    assert checks.check_g_tilde(bumped, want, "x")


def test_scan_checker_rejects_failed_and_inexact_scans():
    ok = ScanReport("5.1-left", 0, 6, [ScanCase("a", 0.0, -1.0)], exact_tolerance=1e-12)
    assert checks.check_scans({"5.1-left": ok}) == []
    off = ScanReport("5.1-left", 0, 6, [ScanCase("a", 0.0, 1e-10)], exact_tolerance=1e-12)
    assert len(checks.check_scans({"5.1-left": off})) == 2
    drift = ScanReport("2.2", 0, 6, [ScanCase("a", 1.0, 2.0)])
    assert checks.check_scans({"2.2": drift})


def test_fit_checker_rejects_perturbed_slopes():
    spec = ExperimentSpec("maximal", 2.0, (0.5, 0.25, 0.125, 0.0625), 10)
    aps = np.array([2.0, 4.0, 8.0, 16.0])
    pts = [FitPoint(d, float(a), float(a**0.9), float(np.log(a)), 0.9 * float(np.log(a)), 0.0, False)
           for d, a in zip(spec.deltas, aps)]
    result = FitResult(spec, 0.9, 0.0, 1.0, pts)
    assert checks.check_fit("m", result, (0.8, 1.05)) == []
    assert checks.check_fit("m", dataclasses.replace(result, slope=0.95), (0.8, 1.05))
    steep = [dataclasses.replace(p, ratio=p.ap_char**1.2) for p in pts]
    assert len(checks.check_fit("m", FitResult(spec, 1.2, 0.0, 1.0, steep), (0.8, 1.25))) == 1


def test_operator_property_checkers_reject_perturbed_values():
    f = GridFunction(1, 8, checks.fit_input(8, 0.25), origin=-1)
    sd = operators.dyadic_square(f).values
    assert checks.check_isometry(f.values, sd, "x") == []
    assert checks.check_isometry(f.values, sd * (1 + 1e-9), "x")
    mf = operators.maximal(f).values
    assert checks.check_maximal_dominates(f.values, mf, "x") == []
    low = mf.copy()
    low[300] = 0.5 * abs(f.values[300])
    assert checks.check_maximal_dominates(f.values, low, "x")


def test_weight_checkers_reject_perturbed_values():
    for label, w in harness.corpus_weights(3, 4, n=5):
        a_inf = weights.ainfty_fujii(w)
        want = checks.ainfty_oracle(w.values)
        assert checks.check_weight_value("A_inf", a_inf, want, label) == []
        assert checks.check_weight_value("A_inf", a_inf * (1 + 1e-9), want, label)
        ap = weights.ap_characteristic(w, 3.0)
        want_ap = checks.ap_oracle(w.values, checks.dual_sigma(w, 3.0), 3.0)
        assert checks.check_weight_value("A_3", ap, want_ap, label) == []
        assert checks.check_ratio(a_inf / ap, want / want_ap, label) == []
        assert checks.check_ratio(a_inf / ap * (1 + 1e-9), want / want_ap, label)
    assert checks.check_weight_value("A_inf", 0.999, 0.999, "below one")


def test_cube_checker_rejects_broken_structure():
    d = decompose(workload.decomposition_corpus(0, 2, 8)[1])
    gens = checks.cubes_of(d)
    assert len(gens) >= 2
    assert checks.check_cubes(gens, 256, "x") == []
    a, b, parent = gens[1][0]
    overlap = [list(g) for g in gens]
    overlap[1].append((a, b, parent))
    assert checks.check_cubes(overlap, 256, "x")
    orphan = [list(g) for g in gens]
    orphan[1][0] = (a, b, parent + 1)
    assert checks.check_cubes(orphan, 256, "x")
    unaligned = [list(g) for g in gens]
    unaligned[0][0] = (1, 3, 0)
    assert checks.check_cubes(unaligned, 256, "x")
    assert checks.check_cubes([[(0, 64, 0), (64, 128, 0), (128, 192, 0)]], 256, "x")


def test_decomposition_and_cli_checks_reject_failures(tmp_path):
    f = random_fn(10)
    d = decompose(f)
    inp = {"seed": 0}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(d.to_json()))
    out = {"scans": {}, "decomps": [(0, d, {"passed": False})],
           "cli": [(["verify", "--in", str(path)], 1, "", str(path))]}
    fails = workload.weights_decomp_check(inp, out)
    assert any("verifier failed" in m for m in fails)
    assert any("exit status 1" in m for m in fails)
    assert any("five passes" in m for m in fails)


def test_tracer_wraps_every_binding_and_accounts_self_time():
    w = harness.corpus_weights(0, 4, n=1)[0][1]
    f = random_fn(5)
    original = operators.maximal
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.maximal is not original
        assert harness.OPERATOR_REGISTRY["maximal"] is harness.maximal
        harness.maximal(f)
        harness.OPERATOR_REGISTRY["maximal"](f)
        weights.ainfty_fujii(w)
    finally:
        tracer.uninstall()
    assert harness.maximal is original and harness.OPERATOR_REGISTRY["maximal"] is original
    m = tracer.metrics()
    assert m["weights.ainfty_fujii.calls"] == 1
    windows = sum(16 - ln + 1 for ln in (1, 2, 4, 8, 16))
    assert m["operators.maximal.calls"] == 2 + windows
    assert m["operators.maximal.cells"] == 32 * 2 + 16 * windows
    assert m["gridfn.GridFunction.calls"] >= 2 + 2 * windows
    roots = sum(c1 - c0 for _, parent, c0, c1, *_ in tracer.spans if parent < 0)
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(roots, abs=1e-9)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def git_status():
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git work tree")
def test_run_leaves_git_status_unchanged():
    before = git_status()
    proc = run_bench(ROOT, "--workload", "weights-decomp", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert git_status() == before


def test_traced_counts_repeat_between_runs():
    runs = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "weights-decomp", "--seed", "5", "--seconds", "1",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(runs[0]) == {m["name"] for m in declared["per_layer"]}
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["operators.maximal.calls"] > 1000


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "lemma-scans", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
