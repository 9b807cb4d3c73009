"""End-to-end CLI coverage through main(argv)."""

import argparse
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sharpwt.cli
from oracles import power_weight_pm1
from sharpwt.cli import build_parser, main, parse_function
from sharpwt.gridfn import GridFunction
from sharpwt.harness import OPERATOR_REGISTRY
from sharpwt.intrinsic import g_tilde
from sharpwt.weights import Weight, ap_characteristic


def test_parse_function_specs():
    f = parse_function("const:2.5", 0, 4)
    assert np.all(f.values == 2.5)
    ind = parse_function("indicator:0:1/2", 0, 4)
    assert np.all(ind.values[:8] == 1.0) and np.all(ind.values[8:] == 0.0)
    haar = parse_function("haar:0:1", 0, 4)
    assert np.all(haar.values[:8] == 1.0) and np.all(haar.values[8:] == -1.0)
    spike = parse_function("spike:3", 0, 4)
    assert spike.values[3] == 16.0 and np.sum(spike.values != 0) == 1
    r1 = parse_function("random:9", 0, 4)
    r2 = parse_function("random:9", 0, 4)
    assert np.array_equal(r1.values, r2.values)
    with pytest.raises(ValueError):
        parse_function("bogus:1", 0, 4)


def test_cli_ap_constant(capsys):
    rc = main(["ap", "--weight", "const:5", "--p", "2", "--res", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A_p(p=2) = 1.0" in out


def test_cli_ap_prints_the_librarys_value(tmp_path, capsys):
    """`ap` prints ap_characteristic's value bitwise: a power weight keeps
    its closed-form dual, here with the singularity inside the domain."""
    file_weight = GridFunction(0, 4, np.exp(np.sin(np.arange(16.0))))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(file_weight.to_json()))
    cases = [
        ("power:-0.5", ["--L", "1", "--origin", "-1", "--res", "8"], power_weight_pm1(8, -0.5)),
        ("const:2", ["--res", "6"], Weight(GridFunction(0, 6, np.full(64, 2.0)))),
        (f"file:{path}", [], Weight(file_weight)),
    ]
    for spec, flags, w in cases:
        assert main(["ap", "--weight", spec, "--p", "2", *flags]) == 0
        assert capsys.readouterr().out == f"A_p(p=2) = {ap_characteristic(w, 2.0)!r}\n"
    # the step values alone give another value (1.49976 against 1.4999973)
    assert ap_characteristic(Weight(cases[0][2].base), 2.0) != ap_characteristic(cases[0][2], 2.0)
    with pytest.raises(SystemExit) as exc:
        main(["ap", "--weight", "bogus:1"])
    assert exc.value.code == 2


def test_cli_exponent_window_holds_the_slope(capsys):
    rc = main(["exponent", "--op", "sd", "--p", "2",
               "--deltas", "0.5,0.25,0.125,0.0625", "--res", "8",
               "--window=0.70,0.76"])
    assert rc == 0
    assert "slope=0.73" in capsys.readouterr().out


@pytest.mark.parametrize("window", ["nan,1", "1.05,0.8", "inf,inf", "-inf,1", "1", "0.5,0.6,0.7", "a,b", ""])
def test_cli_exponent_rejects_a_window_that_is_not_lo_le_hi(window, monkeypatch, capsys):
    # each ran the whole fit, then failed as a check (exit 1) or on unpacking
    def no_fit(spec):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(sharpwt.cli, "exponent_experiment", no_fit)
    with pytest.raises(SystemExit) as exc:
        main(["exponent", "--op", "sd", "--res", "6", f"--window={window}"])
    assert exc.value.code == 2
    assert "--window takes lo,hi" in capsys.readouterr().err


def test_cli_exponent_window_failure_is_nonzero(capsys):
    rc = main(["exponent", "--op", "sd", "--p", "2",
               "--deltas", "0.5,0.25,0.125,0.0625", "--res", "8",
               "--window", "0.5,0.6"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "ASSERTION FAILED" in captured.err


def test_cli_exponent_window_fails_when_every_point_is_flagged(capsys):
    # at --res 0 f_delta sits in one cell and every ladder point is flagged:
    # the slope, 0.5, reflects the two-cell grid, though the window holds it
    rc = main(["exponent", "--op", "sd", "--res", "0", "--window", "0.4,0.6"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "slope=0.5 " in captured.out and "flagged=4/4" in captured.out
    assert "every ladder point is flagged" in captured.err and "--res 0" in captured.err
    # one unflagged point is enough: this fit passes a window that holds its slope
    assert main(["exponent", "--op", "sd", "--res", "8", "--window", "0.70,0.76"]) == 0
    assert "flagged=3/4" in capsys.readouterr().out


def test_cli_exponent_emits_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    rc = main(["exponent", "--op", "sd", "--p", "2",
               "--deltas", "0.5,0.25,0.125,0.0625", "--res", "9",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("delta,ap_char,ratio,log_ap,log_ratio")
    assert "# slope=" in text


def test_cli_ratio_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["ratio-scan", "--lemma", "4.3", "--n", "8", "--out", str(out)])
    assert rc == 0
    assert "lemma 4.3" in capsys.readouterr().out
    assert out.read_text().startswith("case,ratio_base,ratio_refined")


@pytest.mark.parametrize("argv", [["ratio-scan", "--lemma", "9.9"], ["exponent", "--op", "bogus"]])
def test_cli_rejects_unknown_registry_names(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_decompose_verify_roundtrip(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    rc = main(["decompose", "--fn", "random:4", "--res", "8", "--out", str(tree)])
    assert rc == 0
    assert "verified=True" in capsys.readouterr().out
    payload = json.loads(tree.read_text())
    assert "grid_function" in payload and "generations" in payload

    rc = main(["verify", "--in", str(tree)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") >= 5


@pytest.mark.parametrize("edit", [{"root_cells": [0, 128]}, {"root_cells": [128, 256]},
                                  {"lambda": "1/4"}])
def test_cli_verify_rejects_a_dump_of_another_root_or_lambda(edit, tmp_path, capsys):
    # a dump is outside input, and every tree the program writes is of the
    # whole grid at lambda 1/8; any other root or lambda is refused
    tree = tmp_path / "tree.json"
    assert main(["decompose", "--fn", "random:4", "--res", "8", "--out", str(tree)]) == 0
    tree.write_text(json.dumps({**json.loads(tree.read_text()), **edit}))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(tree)])
    assert exc.value.code == 2
    assert "covers the whole grid, root_cells [0, 256], at lambda 1/8" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [[0, 1000], [8, 4], [-4, 4], [4, 4], [0], [0, 4, 8], [0.0, 4], None])
def test_cli_verify_rejects_a_cube_whose_cells_are_not_a_range_of_the_grid(cells, tmp_path, capsys):
    # [0, 1000] on 64 cells ended in an IndexError traceback (exit 1), and
    # [8, 4] and [-4, 4] came out as failed checks (exit 1)
    tree = tmp_path / "tree.json"
    assert main(["decompose", "--fn", "random:4", "--res", "6", "--out", str(tree)]) == 0
    dump = json.loads(tree.read_text())
    assert dump["generations"]
    dump["generations"][0][0]["cells"] = cells
    tree.write_text(json.dumps(dump))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(tree)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sharpwt: error: a cube's cells are two ints 0 <= a < b <= 64, not {cells!r}")


@pytest.mark.parametrize("argv", [
    ["decompose", "--fn", "random:4", "--res", "4"],
    ["apply", "--op", "maximal", "--fn", "random:4", "--res", "4"],
])
def test_cli_unwritable_out_names_the_path(argv, tmp_path, capsys):
    out = tmp_path / "no" / "dir" / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"cannot write report to {out}" in capsys.readouterr().err


def test_cli_apply_operator(tmp_path, capsys):
    out = tmp_path / "mf.csv"
    rc = main(["apply", "--op", "maximal", "--fn", "indicator:0:1/2",
               "--res", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 129


def test_cli_apply_gtilde_dictionary(capsys):
    rc = main(["apply", "--op", "gtilde", "--fn", "haar:0:1", "--res", "5",
               "--mode", "dictionary"])
    assert rc == 0
    assert "gtilde" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_cli_file_weight_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "w.json"
    values = ["1.0"] * 16
    values[5] = bad  # json writes non-finite floats as these tokens
    path.write_text('{"level_L": 0, "resolution_s": 4, "origin": "0", "values": [%s]}' % ", ".join(values))
    with pytest.raises(ValueError, match="finite"):
        parse_function(f"file:{path}", 0, 4)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sharpwt.cli", "ap", "--weight", f"file:{path}",
                           "--p", "2", "--res", "4"], capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "finite" in proc.stderr


FLAGS = {
    "exponent": "--out --res --run --op --p --deltas --family --window",
    "ratio-scan": "--seed --out --lemma --n --res",
    "decompose": "--out --res --L --origin --fn",
    "verify": "--in",
    "apply": "--out --res --L --origin --op --fn --alpha --q --beta --mode --nodes-per-box",
    "ap": "--res --L --origin --weight --p",
}


def test_cli_flag_sets():
    """Each subcommand has exactly the flags it reads, and there are no global ones."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.option_strings for a in parser._actions if a is not sub] == [["-h", "--help"]]
    got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == {name: set(flags.split()) for name, flags in FLAGS.items()}


# apply: the cone flags, each with an operator that does not read it
CONE_VALUES = {"--alpha": "0.9", "--q": "5", "--beta": "7", "--mode": "dictionary", "--nodes-per-box": "4"}
APPLY_UNREAD = [
    *((op, flag, value) for op in ("maximal", "sd", "hilbert", "hilbert-max", "gpsi")
      for flag, value in CONE_VALUES.items()),
    *(("spsi", flag, CONE_VALUES[flag]) for flag in ("--alpha", "--q", "--mode")),
    ("gtilde", "--beta", "7"),
]


@pytest.mark.parametrize("argv", [
    ["--config", "conf", "ap", "--weight", "const:2"],
    ["ratio-scan", "--lemma", "4.3", "--L", "3"],
    ["ratio-scan", "--lemma", "4.3", "--origin", "5"],
    ["ratio-scan", "--lemma", "4.3", "--scan-res", "5"],
    ["decompose", "--fn", "const:1", "--format", "json"],
    ["apply", "--op", "maximal", "--fn", "const:1", "--format", "json"],
    ["apply", "--op", "maximal", "--fn", "const:1", "--t-min-level", "2"],
    ["apply", "--op", "maximal", "--fn", "const:1", "--t-max-level", "2"],
    ["ap", "--weight", "const:2", "--out", "x"],
    ["ap", "--weight", "const:2", "--seed", "9"],
    ["ap", "--weight", "const:2", "--format", "json"],
    ["exponent", "--origin", "1"],
    ["exponent", "--run", "maximal-p4", "--p", "9"],
    ["exponent", "--run", "maximal-p4", "--res", "3"],
    ["exponent", "--op", "sd", "--L", "1"],  # every fit runs on [-1, 1)
    ["exponent", "--run", "maximal-p4", "--op", "sd"],
    ["exponent", "--run", "maximal-p4", "--deltas", "0.5,0.25,0.125,0.0625"],
    ["exponent", "--run", "maximal-p4", "--family", "buckley"],
    ["exponent", "--run", "maximal-p4", "--window", "5,6"],
    ["exponent", "--op", "sd", "--seed", "5"],
    ["exponent", "--op", "sd", "--format", "json"],
    ["ratio-scan", "--lemma", "4.3", "--format", "json"],
    *(["apply", "--op", op, "--fn", "random:3", "--res", "5", flag, value]
      for op, flag, value in APPLY_UNREAD),
    # random:<seed> names the seed; random: is seed 0
    ["decompose", "--fn", "random:", "--seed", "5"],
    ["apply", "--op", "maximal", "--fn", "random:", "--seed", "5"],
])
def test_cli_rejects_flags_it_would_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_cli_ratio_scan_res_sets_scan_resolution(tmp_path, capsys):
    out = tmp_path / "scan.json"
    rc = main(["ratio-scan", "--lemma", "4.3", "--n", "4", "--res", "7", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["resolution_s"] == 7


@pytest.mark.parametrize("op, flags", [
    ("maximal", ""), ("sd", ""), ("hilbert", ""), ("hilbert-max", ""), ("gpsi", ""),
    ("spsi", "--beta 2 --nodes-per-box 2"),
    ("galpha", "--alpha 0.9 --q 5 --beta 2 --mode dictionary --nodes-per-box 2"),
    ("gtilde", "--alpha 0.9 --q 5 --mode dictionary --nodes-per-box 2"),
])
def test_cli_apply_takes_the_flags_its_operator_reads(op, flags, tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main(["apply", "--op", op, "--fn", "random:3", "--res", "4", "--out", str(out), *flags.split()])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 17


@pytest.mark.parametrize("argv", [
    ["exponent", "--op", "sd", "--p", "1"],
    ["ap", "--weight", "const:2", "--origin", "1/3"],
    ["decompose", "--fn", "bogus:1"],
    ["verify", "--in", "missing.json"],
    ["apply", "--op", "maximal", "--fn", "const:1", "--res", "3", "--out", "no/such/dir/g.csv"],
    ["exponent", "--op", "sd", "--out", "no/such/dir/fit.csv"],
    ["apply", "--op", "maximal", "--fn", "spike:99", "--res", "4"],
    ["apply", "--op", "maximal", "--fn", "spike:-1", "--res", "4"],
    ["apply", "--op", "maximal", "--fn", "indicator:1/2:0", "--res", "4"],
    ["apply", "--op", "maximal", "--fn", "haar:1/2:1/2", "--res", "4"],
    ["ap", "--weight", "const:2", "--p", "nan"],
    ["ap", "--weight", "const:2", "--p", "inf"],
    ["apply", "--op", "spsi", "--fn", "random:", "--res", "5", "--beta", "-1"],
    ["apply", "--op", "galpha", "--fn", "random:", "--res", "4", "--beta", "-2"],
    ["apply", "--op", "maximal", "--fn", "const:1", "--res", "-3"],
    ["ap", "--weight", "const:1", "--res", "-2"],
    ["ap", "--weight", "power:0.5", "--res", "-2"],
    ["exponent", "--op", "sd", "--res", "-3"],
    ["ratio-scan", "--lemma", "5.9", "--res", "-8"],
    ["exponent", "--op", "sd", "--deltas", "0.5,nan,0.1,0.05"],
    ["exponent", "--op", "sd", "--deltas", "inf,0.5,0.1,0.05"],
    ["ratio-scan", "--lemma", "2.2", "--n", "-5"],
])
def test_cli_library_errors_exit_2_without_traceback(argv, tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sharpwt.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("sharpwt: error:")


@pytest.mark.parametrize("argv", [
    ["apply", "--op", "gtilde", "--fn", "random:1", "--res", "4", "--nodes-per-box", "0"],
    ["apply", "--op", "spsi", "--fn", "random:1", "--res", "4", "--nodes-per-box", "-1"],
])
def test_cli_rejects_nodes_per_box_below_one(argv, tmp_path):
    # unchecked, 0 ends in a ZeroDivisionError (status 1, kept for failed
    # checks) and -1 in numpy's broadcast-shape message
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sharpwt.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "sharpwt: error: nodes_per_box must be >= 1"


def test_cli_seed_picks_the_random_function(tmp_path, capsys):
    def run(spec):
        out = tmp_path / f"g{spec.replace(':', '-')}.csv"
        assert main(["apply", "--op", "maximal", "--fn", spec, "--res", "3", "--out", str(out)]) == 0
        return out.read_bytes()

    assert run("random:5") != run("random:0")
    assert run("random:0") == run("random:")


@pytest.mark.parametrize("op, params", [
    *((op, {}) for op in ("maximal", "sd", "hilbert", "hilbert-max", "gpsi", "spsi", "galpha", "gtilde")),
    ("spsi", {"beta": 2.0, "nodes_per_box": 2}),
    ("galpha", {"alpha": 0.9, "q": 5, "beta": 2.0, "mode": "dictionary", "nodes_per_box": 2}),
    ("gtilde", {"alpha": 0.9, "q": 5, "mode": "dictionary", "nodes_per_box": 2}),
])
def test_cli_apply_writes_the_registry_operators_image(op, params, tmp_path, capsys):
    out = tmp_path / "g.csv"
    flags = [arg for key, val in params.items() for arg in (f"--{key.replace('_', '-')}", str(val))]
    assert main(["apply", "--op", op, "--fn", "random:3", "--res", "4", "--out", str(out), *flags]) == 0
    g = OPERATOR_REGISTRY[op](parse_function("random:3", 0, 4), **params)
    want = "x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in g.to_csv_rows())
    assert out.read_bytes() == want.encode()


def test_cli_exponent_and_apply_offer_every_registry_operator():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    ops = {name: set(next(a.choices for a in sub.choices[name]._actions if a.dest == "op"))
           for name in ("exponent", "apply")}
    assert ops["exponent"] == ops["apply"] == set(OPERATOR_REGISTRY)


def test_cli_exponent_gtilde_fits_the_dictionary_lower_bound(monkeypatch, capsys):
    images = []
    original = OPERATOR_REGISTRY["gtilde"]

    @functools.wraps(original)
    def recording(f, **params):
        images.append((f, original(f, **params)))
        return images[-1][1]

    monkeypatch.setitem(OPERATOR_REGISTRY, "gtilde", recording)
    assert main(["exponent", "--op", "gtilde", "--p", "3", "--res", "6"]) == 0
    assert len(images) == 4  # one per ladder point
    for f, g in images:
        assert g.values.tobytes() == g_tilde(f, mode="dictionary").values.tobytes()
