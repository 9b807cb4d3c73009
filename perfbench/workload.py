"""One round of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 --work DIR

Imports numpy, scipy and sharpwt from the checkout's `src/`, generates the
inputs, then runs the timed body: every operation of the workload, from the
first call into sharpwt to the last output produced.  Checks against
independent computations run afterwards and stay outside the timing.
Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sharpwt  # noqa: E402
from sharpwt import cli, decomp, harness, intrinsic, operators, weights  # noqa: E402
from sharpwt.gridfn import GridFunction  # noqa: E402

# the scans, in the order the acceptance suite runs them, sharing one engine cache
LEMMA_ORDER = ("5.9", "2.1", "2.2", "2.3", "5.5-dom", "5.2", "5.1-left", "5.1-right")
LEMMA_N_RANDOM = 2       # random corpus functions per scan, beside the 10 structured ones
AINFTY_N_WEIGHTS = 5     # scan 5.13: four lognormal weights and one power weight
SCAN_53_N_RANDOM = 10
DECOMP_CORPUS = 500      # s = 10 functions through decompose + verify
DECOMP_S = 10
CLI_ROUND_TRIPS = 4


class Round:
    """Counts operations and keeps the failure record of each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # one failed operation must not end the round
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None


# ---------------------------------------------------------------------------
# workloads: inputs, timed body, checks
# ---------------------------------------------------------------------------


def lemma_scans_inputs(seed: int) -> dict:
    return {"seed": seed}


def lemma_scans_body(inp: dict, rnd: Round, work: Path) -> dict:
    reports = {}
    for lemma in LEMMA_ORDER:
        def op(lemma=lemma):
            rep = harness.ratio_scan(lemma, seed=inp["seed"], n_random=LEMMA_N_RANDOM)
            harness.emit(rep, str(work / f"scan-{lemma}.csv"))
            return rep
        rep = rnd.run(f"scan {lemma}", op)
        if rep is not None:
            reports[lemma] = rep
    return reports


def lemma_scans_check(inp: dict, reports: dict) -> list[str]:
    import checks

    out = checks.check_scans(reports)
    rng = np.random.default_rng([inp["seed"], 1])
    fs = harness.corpus_functions(inp["seed"], 6, n_random=LEMMA_N_RANDOM)
    cls17, cls5 = intrinsic.HolderClass(0.5, 17), intrinsic.HolderClass(0.5, 5)
    for i in range(12):
        label, f = fs[int(rng.integers(len(fs)))]
        y, t = float(rng.uniform(-0.2, 1.2)), float(rng.uniform(1 / 64, 1.0))
        c = intrinsic.hat_coefficients(f, y, t, 17)
        lp = cls17.lp_sup(c)
        tag = f"{label} node ({y:.4g}, {t:.4g})"
        out += checks.check_lp_sup(c, lp, tag)
        out += checks.check_dict_below_lp(cls17.dict_sup(c), lp, tag)
        if i < 2:
            c5 = intrinsic.hat_coefficients(f, y, t, 5)
            out += checks.check_lattice_q5(c5, cls5.lp_sup(c5), tag + " q=5")
    label, f = fs[int(rng.integers(LEMMA_N_RANDOM))]
    want = checks.g_tilde_oracle(f.values, f.level_L, f.resolution_s, float(f.origin))
    out += checks.check_g_tilde(intrinsic.g_tilde(f).values, want, f"{label} G~")
    return out


def exponent_fits_inputs(seed: int) -> dict:
    return {"seed": seed, "runs": dict(harness.ACCEPTANCE_RUNS)}


def exponent_fits_body(inp: dict, rnd: Round, work: Path) -> dict:
    results = {}
    for name, (spec, _target, _window) in inp["runs"].items():
        def op(name=name, spec=spec):
            result = harness.exponent_experiment(spec)
            harness.emit(result, str(work / f"exponent-{name}.csv"))
            return result
        result = rnd.run(f"fit {name}", op)
        if result is not None:
            results[name] = result
    return results


def exponent_fits_check(inp: dict, results: dict) -> list[str]:
    import checks

    out = []
    rng = np.random.default_rng([inp["seed"], 4])
    for name, result in results.items():
        spec, _target, window = inp["runs"][name]
        out += checks.check_fit(name, result, window)
        # one seeded ladder point per fit keeps the N = 2^19 checks short
        for delta in rng.choice(spec.deltas, 1):
            f = GridFunction(1, spec.resolution_s, checks.fit_input(spec.resolution_s, delta), origin=-1)
            tag = f"{name} delta={delta:.4g}"
            if spec.operator == "sd":
                out += checks.check_isometry(f.values, operators.dyadic_square(f).values, tag)
            elif spec.operator == "maximal":
                out += checks.check_maximal_dominates(f.values, operators.maximal(f).values, tag)
    return out


def decomposition_corpus(seed: int, count: int, s: int) -> list[GridFunction]:
    """Even entries: standard normal cells, whose trees are one generation
    deep.  Odd entries: a seeded singularity |x - c|^a, a in (-0.9, -0.2),
    by exact cell averages, plus 0.1 noise; their trees nest two or three
    generations deep."""
    rng = np.random.default_rng([seed, 2])
    n = 2**s
    edges = np.arange(n + 1) / n
    out = []
    for i in range(count):
        noise = rng.standard_normal(n)
        if i % 2 == 0:
            out.append(GridFunction(0, s, noise))
            continue
        a, c = float(rng.uniform(-0.9, -0.2)), int(rng.integers(n)) / n
        u = edges - c
        anti = np.sign(u) * np.abs(u) ** (a + 1.0) / (a + 1.0)
        out.append(GridFunction(0, s, np.diff(anti) * n + 0.1 * noise))
    return out


def weights_decomp_inputs(seed: int) -> dict:
    fs = decomposition_corpus(seed, DECOMP_CORPUS, DECOMP_S)
    specs = [f"random:{seed * 1000 + i}" for i in range(CLI_ROUND_TRIPS)]
    return {"seed": seed, "functions": fs, "cli_specs": specs}


def weights_decomp_body(inp: dict, rnd: Round, work: Path) -> dict:
    seed = inp["seed"]
    out = {"scans": {}, "decomps": [], "cli": []}
    for lemma, n in (("5.13", AINFTY_N_WEIGHTS), ("5.3", SCAN_53_N_RANDOM)):
        def op(lemma=lemma, n=n):
            rep = harness.ratio_scan(lemma, seed=seed, n_random=n)
            harness.emit(rep, str(work / f"scan-{lemma}.csv"))
            return rep
        rep = rnd.run(f"scan {lemma}", op)
        if rep is not None:
            out["scans"][lemma] = rep
    for i, f in enumerate(inp["functions"]):
        def op(f=f):
            d = decomp.decompose(f)
            return d, decomp.verify_decomposition(f, d)
        res = rnd.run(f"decomposition {i}", op)
        if res is not None:
            out["decomps"].append((i, *res))
    for spec in inp["cli_specs"]:
        path = str(work / f"tree-{spec.replace(':', '-')}.json")
        for argv in (["decompose", "--fn", spec, "--res", str(DECOMP_S), "--out", path],
                     ["verify", "--in", path]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = rnd.run(f"cli {' '.join(argv)}", cli.main, argv)
            out["cli"].append((argv, code, buf.getvalue(), path))
    return out


def weights_decomp_check(inp: dict, out: dict) -> list[str]:
    import checks

    fails = checks.check_scans(out["scans"])
    rng = np.random.default_rng([inp["seed"], 3])
    # small weights: the program's functionals against brute force
    small = harness.corpus_weights(inp["seed"] + 1, 5, n=5)
    for label, w in small:
        fails += checks.check_weight_value("A_inf", weights.ainfty_fujii(w),
                                           checks.ainfty_oracle(w.values), f"s=5 {label}")
        for p in (2.0, 3.0):
            fails += checks.check_weight_value(
                f"A_{p:g}", weights.ap_characteristic(w, p),
                checks.ap_oracle(w.values, checks.dual_sigma(w, p), p), f"s=5 {label}")
    # one weight of scan 5.13: its reported ratio against brute force
    rep = out["scans"].get("5.13")
    if rep is not None:
        ws = harness.corpus_weights(inp["seed"], rep.resolution_s, n=len(rep.cases))
        k = int(rng.integers(len(ws)))
        label, w = ws[k]
        want = checks.ainfty_oracle(w.values) / checks.ap_oracle(w.values, checks.dual_sigma(w, 2.0), 2.0)
        fails += checks.check_ratio(rep.cases[k].ratio_base, want, f"scan 5.13 {label}")
    for i, d, report in out["decomps"]:
        if not report["passed"]:
            fails.append(f"decomposition {i}: verifier failed")
        fails += checks.check_cubes(checks.cubes_of(d), d.f.ncells, f"decomposition {i}")
    for argv, code, text, path in out["cli"]:
        cmd = " ".join(argv)
        if code != 0:
            fails.append(f"cli {cmd}: exit status {code}")
        if argv[0] == "verify":
            if text.count(": pass ") != 5:
                fails.append(f"cli {cmd}: verify did not report five passes")
            with open(path) as fh:
                tree = json.load(fh)
            fails += checks.check_cubes(checks.cubes_of_json(tree), 2**DECOMP_S, f"cli {cmd}")
    return fails


WORKLOADS = {
    "lemma-scans": (lemma_scans_inputs, lemma_scans_body, lemma_scans_check),
    "exponent-fits": (exponent_fits_inputs, exponent_fits_body, exponent_fits_check),
    "weights-decomp": (weights_decomp_inputs, weights_decomp_body, weights_decomp_check),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for emitted files")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after generating the inputs and report only setup_s")
    args = ap.parse_args()
    if Path(sharpwt.__file__).resolve().parent != ROOT / "src" / "sharpwt":
        print(f"sharpwt imported from {sharpwt.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(args.work)
    make_inputs, body, check = WORKLOADS[args.workload]
    inp = make_inputs(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.process_time()}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rnd = Round()
    setup_s = time.process_time()
    wall0 = time.perf_counter()
    thread0 = time.thread_time()
    outputs = body(inp, rnd, work)
    cpu_s = time.process_time() - setup_s
    main_thread_cpu_s = time.thread_time() - thread0
    wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    c0 = time.perf_counter()
    check_failures = check(inp, outputs)
    record = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "main_thread_cpu_s": main_thread_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "check_wall_s": time.perf_counter() - c0,
        "attempted": rnd.attempted,
        "failed": len(rnd.failures),
        "failures": rnd.failures,
        "check_failures": check_failures,
        "traced": bool(args.trace),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write_spans(str(work / "spans.csv"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
