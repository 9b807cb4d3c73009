"""Command-line driver: exponent experiments, lemma ratio scans,
decomposition dump/verify, operator application, and A_p evaluation.

Exit status is 0 iff every asserted window or report check passed, 1 if
one failed (each failure is listed on its own line on stderr), and 2 for
a flag the subcommand does not read or a value the library rejects
(ValueError or OSError), with a one-line message and no traceback.
`verify --in` decomposes a dump's grid_function again and exits 2 unless
the dump is that decomposition's JSON; it never reads the dump's tree.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from sharpwt.decomp import decompose, verify_decomposition
from sharpwt.gridfn import GridFunction, cell_count
from sharpwt.harness import (
    ACCEPTANCE_RUNS,
    OPERATOR_REGISTRY,
    SCANS,
    _WEIGHT_FAMILIES,
    ExperimentSpec,
    _write_report,
    emit,
    exponent_experiment,
    ratio_scan,
)
from sharpwt.weights import PowerWeightSpec, Weight, ap_characteristic, power_cell_averages


def parse_function(spec: str, level_L: int, resolution_s: int, origin=0) -> GridFunction:
    """Function specs: const:<c> | indicator:<a>:<b> | haar:<a>:<b> |
    power:<a> | spike:<i> | random:<seed> (random: is seed 0) | file:<path.json>."""
    n = cell_count(level_L, resolution_s)
    probe = GridFunction(level_L, resolution_s, np.zeros(n), origin)
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return GridFunction.load(rest)
    if kind == "const":
        return probe.with_values(np.full(n, float(rest)))
    if kind == "random":
        rng = np.random.default_rng(int(rest) if rest else 0)
        return probe.with_values(rng.standard_normal(n))
    if kind == "power":
        return probe.with_values(power_cell_averages(probe.cell_edges(), float(rest)))
    if kind == "spike":
        if not 0 <= int(rest) < n:
            raise ValueError(f"spike index {rest} outside 0..{n - 1}")
        vals = np.zeros(n)
        vals[int(rest)] = float(n)
        return probe.with_values(vals)
    if kind in ("indicator", "haar"):
        a_str, _, b_str = rest.partition(":")
        a, b = Fraction(a_str), Fraction(b_str)
        if a >= b:
            raise ValueError(f"{kind} needs a < b, got {spec!r}")
        edges = probe.cell_edges()
        vals = np.zeros(n)
        inside = (edges[:-1] >= float(a)) & (edges[1:] <= float(b))
        if kind == "indicator":
            vals[inside] = 1.0
        else:
            mid = float((a + b) / 2)
            vals[inside & (edges[1:] <= mid)] = 1.0
            vals[inside & (edges[:-1] >= mid)] = -1.0
        return probe.with_values(vals)
    raise ValueError(f"cannot parse function spec {spec!r}")


# the exponent fit's spec flags and their defaults; --run fixes the spec, so
# it rejects every one of them
EXPONENT_SPEC = {"op": "maximal", "p": 2.0, "deltas": "0.5,0.25,0.125,0.0625", "res": 8,
                 "family": ExperimentSpec.weight_family, "window": None}


def _read(ap, args, flags, reads, who: str) -> dict:
    """The flags among `flags` that were given (each defaults to
    argparse.SUPPRESS, which keeps an absent one out of args); exits 2 on
    one that is not in `reads`."""
    given = {key: val for key, val in vars(args).items() if key in flags}
    unread = [f"--{key.replace('_', '-')}" for key in given if key not in reads]
    if unread:
        ap.error(f"{who} does not read {' '.join(unread)}")
    return given


REPORT_OUT = "report path; JSON if it ends in .json, else CSV"


def _fn_flags(p) -> None:
    p.add_argument("--fn", required=True)
    p.add_argument("--out", default=None)


def _window(ap: argparse.ArgumentParser, text: str) -> tuple[float, float]:
    """--window lo,hi: exactly two finite numbers with lo <= hi; exits 2
    on anything else, before the fit runs."""
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        ap.error(f"--window takes lo,hi, two finite numbers with lo <= hi, not {text!r}")
    return lo, hi


def _grid_flags(p) -> None:
    p.add_argument("--res", type=int, default=8, help="resolution s")
    p.add_argument("--L", type=int, default=0, help="domain level (side 2^L)")
    p.add_argument("--origin", default="0")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sharpwt")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("exponent", help="extremal-family exponent fit")
    pe.add_argument("--out", default=None, help=REPORT_OUT)
    pe.add_argument("--run", choices=sorted(ACCEPTANCE_RUNS), help="frozen acceptance run; fixes the spec")
    defaults = ", ".join(f"--{key} {val}" for key, val in EXPONENT_SPEC.items() if val is not None)
    spec = pe.add_argument_group("spec", f"rejected with --run; defaults {defaults}")
    # SUPPRESS keeps a flag that was not given out of the namespace
    unset = {"default": argparse.SUPPRESS}
    spec.add_argument("--res", type=int, help="resolution s", **unset)
    spec.add_argument("--op", choices=sorted(OPERATOR_REGISTRY),
                      help="an operator that takes --mode fits in dictionary mode", **unset)
    spec.add_argument("--p", type=float, **unset)
    spec.add_argument("--deltas", **unset)
    spec.add_argument("--family", choices=_WEIGHT_FAMILIES, **unset)
    spec.add_argument("--window", help="lo,hi slope assertion", **unset)

    pr = sub.add_parser("ratio-scan", help="lemma inequality scan over the corpus")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default=None, help=REPORT_OUT)
    pr.add_argument("--lemma", choices=sorted(SCANS), required=True)
    pr.add_argument("--n", type=int, default=None, help="random corpus size")
    pr.add_argument("--res", type=int, default=None, help="scan base resolution (default: the lemma's)")

    pd = sub.add_parser("decompose", help="stopping-time decomposition to JSON")
    _fn_flags(pd)
    _grid_flags(pd)

    pv = sub.add_parser("verify", help="rebuild a decomposition dump from its grid_function and re-check it")
    pv.add_argument("--in", dest="infile", required=True)

    pa = sub.add_parser("apply", help="apply an operator, emit CSV")
    _fn_flags(pa)
    _grid_flags(pa)
    # each apply operator's parameters; their defaults are apply's
    ops = {name: inspect.signature(op).parameters for name, op in OPERATOR_REGISTRY.items()}
    pa.add_argument("--op", choices=ops, required=True)
    cone = pa.add_argument_group("cone")
    flags = [cone.add_argument("--alpha", type=float, **unset).dest,
             cone.add_argument("--q", type=int, **unset).dest,
             cone.add_argument("--beta", type=float, **unset).dest,
             cone.add_argument("--mode", choices=("lp", "dictionary"), **unset).dest,
             cone.add_argument("--nodes-per-box", type=int, **unset).dest]
    reads = [name + "".join(f" --{key.replace('_', '-')} {params[key].default}"
                            for key in flags if key in params)
             for name, params in ops.items() if params.keys() & flags]
    cone.description = f"read only by the operators that take them; defaults {', '.join(reads)}"

    pw = sub.add_parser("ap", help="A_p characteristic of a weight")
    _grid_flags(pw)
    pw.add_argument("--weight", required=True)
    pw.add_argument("--p", type=float, default=2.0)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        failures = _run(ap, args)
    except (ValueError, OSError) as exc:
        ap.error(str(exc))
    for msg in failures:
        print(f"ASSERTION FAILED: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _run(ap: argparse.ArgumentParser, args) -> list[str]:
    """Run one parsed subcommand; returns the failed checks."""
    failures = []
    if args.command == "exponent":
        given = _read(ap, args, EXPONENT_SPEC, () if args.run else EXPONENT_SPEC,
                      "exponent --run, which fixes the spec,")
        if args.run:
            spec, _, window = ACCEPTANCE_RUNS[args.run]
        else:
            opt = argparse.Namespace(**{**EXPONENT_SPEC, **given})
            deltas = tuple(float(x) for x in opt.deltas.split(","))
            spec = ExperimentSpec(opt.op, opt.p, deltas, opt.res, opt.family)
            window = None if opt.window is None else _window(ap, opt.window)
        result = exponent_experiment(spec)
        flagged = sum(q.flagged for q in result.points)
        print(f"slope={result.slope:.6g} intercept={result.intercept:.6g} r2={result.r2:.6g} "
              f"flagged={flagged}/{len(result.points)}")
        if args.out:
            emit(result, args.out)
        if window is not None and flagged == len(result.points):
            failures.append(f"every ladder point is flagged (first-cell share > 10%) at resolution "
                            f"--res {spec.resolution_s}, so the slope reflects the grid, not the operator")
        if window is not None and not window[0] <= result.slope <= window[1]:
            failures.append(f"slope {result.slope:.4f} outside window [{window[0]}, {window[1]}]")

    elif args.command == "ratio-scan":
        report = ratio_scan(args.lemma, seed=args.seed, resolution_s=args.res,
                            n_random=args.n)
        print(f"lemma {report.lemma}: max={report.max_base:.6g} drift={report.drift:.4g} "
              f"argmax={report.argmax} passed={report.passed}")
        if args.out:
            emit(report, args.out)
        if not report.passed:
            failures.append(f"ratio scan {args.lemma} failed (max={report.max_base}, drift={report.drift})")

    elif args.command == "decompose":
        f = parse_function(args.fn, args.L, args.res, Fraction(args.origin))
        d = decompose(f)
        if args.out:
            _write_report(args.out, d.to_json())
        rep = verify_decomposition(f, d)
        print(f"generations={len(d.generations)} cubes={rep['n_cubes']} verified={rep['passed']}")
        if not rep["passed"]:
            failures.append("decomposition verifier failed")

    elif args.command == "verify":
        with open(args.infile) as fh:
            dump = json.load(fh)
        if not isinstance(dump, dict):
            raise ValueError(f"a decomposition dump is a JSON object, not a {type(dump).__name__}")
        d = decompose(GridFunction.from_json(dump.get("grid_function")))
        rebuilt = d.to_json()
        differ = sorted(key for key in dump.keys() | rebuilt.keys()
                        if key not in dump or key not in rebuilt or dump[key] != rebuilt[key])
        if differ:
            raise ValueError(f"the dump differs from the decomposition of its grid_function in {', '.join(differ)}")
        rep = verify_decomposition(d.f, d)
        for key in ("ii_disjoint", "iii_nested", "iv_half_measure", "sparse_sets", "i_pointwise"):
            print(f"{key}: {'pass' if rep[key]['passed'] else 'FAIL'} {rep[key]}")
        if not rep["passed"]:
            failures.append("re-checked decomposition failed verification")

    elif args.command == "apply":
        op = OPERATOR_REGISTRY[args.op]
        params = [key for fn in OPERATOR_REGISTRY.values() for key in inspect.signature(fn).parameters]
        cone = _read(ap, args, params, inspect.signature(op).parameters, f"apply --op {args.op}")
        f = parse_function(args.fn, args.L, args.res, Fraction(args.origin))
        g = op(f, **cone)
        if args.out:
            _write_report(args.out, itertools.chain(["x,value"], (f"{x!r},{v!r}" for x, v in g.to_csv_rows())))
        print(f"{args.op}: n={g.ncells} min={g.values.min():.6g} max={g.values.max():.6g}")

    elif args.command == "ap":
        # a power: weight keeps its closed form, so its dual averages are exact
        kind, _, rest = args.weight.partition(":")
        w = Weight(parse_function(args.weight, args.L, args.res, Fraction(args.origin)),
                   power=PowerWeightSpec(float(rest)) if kind == "power" else None)
        val = ap_characteristic(w, args.p)
        print(f"A_p(p={args.p:g}) = {val!r}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
