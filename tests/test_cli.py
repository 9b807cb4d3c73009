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
from sharpwt.weights import Weight, ap_characteristic, power_weight


def test_parse_function_specs():
    f = parse_function("const:2.5", 4)
    assert np.all(f.values == 2.5)
    ind = parse_function("indicator:0:1/2", 4)
    assert np.all(ind.values[:8] == 1.0) and np.all(ind.values[8:] == 0.0)
    haar = parse_function("haar:0:1", 4)
    assert np.all(haar.values[:8] == 1.0) and np.all(haar.values[8:] == -1.0)
    spike = parse_function("spike:3", 4)
    assert spike.values[3] == 16.0 and np.sum(spike.values != 0) == 1
    r1 = parse_function("random:9", 4)
    r2 = parse_function("random:9", 4)
    assert np.array_equal(r1.values, r2.values)
    with pytest.raises(ValueError):
        parse_function("bogus:1", 4)


def test_cli_ap_constant(capsys):
    rc = main(["ap", "--weight", "const:5", "--p", "2", "--res", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A_p(p=2) = 1.0" in out


def test_cli_ap_prints_the_librarys_value(tmp_path, capsys):
    """`ap` prints ap_characteristic's value bitwise: a power weight keeps
    its closed-form dual, here with the singularity at the domain's edge."""
    file_weight = GridFunction(0, 4, np.exp(np.sin(np.arange(16.0))))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(file_weight.to_json()))
    cases = [
        ("power:-0.5", ["--res", "8"], power_weight(8, -0.5)),
        ("const:2", ["--res", "6"], Weight(GridFunction(0, 6, np.full(64, 2.0)))),
        (f"file:{path}", [], Weight(file_weight)),
    ]
    for spec, flags, w in cases:
        assert main(["ap", "--weight", spec, "--p", "2", *flags]) == 0
        assert capsys.readouterr().out == f"A_p(p=2) = {ap_characteristic(w, 2.0)!r}\n"
    # the step values alone give another value
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
    (key,) = edit
    tree = tmp_path / "tree.json"
    assert main(["decompose", "--fn", "random:4", "--res", "8", "--out", str(tree)]) == 0
    tree.write_text(json.dumps({**json.loads(tree.read_text()), **edit}))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(tree)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sharpwt: error: the dump differs from the decomposition of its grid_function in {key}")


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
        "sharpwt: error: the dump differs from the decomposition of its grid_function in generations")


def _one_big_cube(dump):
    dump["generations"] = [[{"cells": [0, 4], "start": "0", "width": "1/16", "osc_coeff": 1e6,
                             "e_measure": 0.0625, "parent": 0}]]


def _every_osc_coeff(dump):
    for gen in dump["generations"]:
        for cube in gen:
            cube["osc_coeff"] = 1e6


@pytest.mark.parametrize("edit, differ", [
    # these five verified with five passes when verify read the dump's own tree
    pytest.param(_one_big_cube, "generations", id="one-big-cube"),
    pytest.param(_every_osc_coeff, "generations", id="every-osc-coeff"),
    pytest.param(lambda dump: dump.update(generations=[]), "generations", id="no-generations"),
    pytest.param(lambda dump: dump.update(root_median=0.0), "root_median", id="root-median"),
    pytest.param(lambda dump: dump["generations"][0][0].update(parent=999), "generations", id="parent"),
    # and these three ended in tracebacks
    pytest.param(lambda dump: dump["generations"][0][0].pop("osc_coeff"), "generations", id="no-osc-coeff"),
    pytest.param(lambda dump: dump["generations"][0][0].update(e_measure=None), "generations",
                 id="null-e-measure"),
    pytest.param(lambda dump: dump.pop("generations"), "generations", id="no-generations-key"),
    pytest.param(lambda dump: dump.update(note=None), "note", id="extra-key"),
    # a tree of other values
    pytest.param(lambda dump: dump["grid_function"]["values"].__setitem__(3, 9.0), "generations",
                 id="grid-function"),
])
def test_cli_verify_refuses_a_dump_that_decompose_did_not_write(edit, differ, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(["decompose", "--fn", "random:4", "--res", "6", "--out", str(tree)]) == 0
    dump = json.loads(tree.read_text())
    edit(dump)
    tree.write_text(json.dumps(dump))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(tree)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sharpwt: error: the dump differs from the decomposition of its grid_function in {differ}")


def test_cli_verify_refuses_a_dump_that_is_not_an_object(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(["decompose", "--fn", "random:4", "--res", "6", "--out", str(tree)]) == 0
    tree.write_text(json.dumps([json.loads(tree.read_text())]))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(tree)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "sharpwt: error: a decomposition dump is a JSON object, not a list")


def test_cli_verify_rebuilds_on_the_dumps_domain(tmp_path, capsys):
    # the tree of f on [-1, 1) verifies; moved to [0, 2) with the same
    # values, the cubes' cells agree but their starts do not
    f, tree = tmp_path / "f.json", tmp_path / "tree.json"
    f.write_text(json.dumps(power_weight_pm1(8, -0.5).base.to_json()))
    assert main(["decompose", "--fn", f"file:{f}", "--out", str(tree)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(tree)]) == 0
    assert capsys.readouterr().out.count(": pass") == 5
    dump = json.loads(tree.read_text())
    dump["grid_function"]["origin"] = "0"
    tree.write_text(json.dumps(dump))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(tree)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "sharpwt: error: the dump differs from the decomposition of its grid_function in generations")


@pytest.mark.parametrize("payload", [
    {"level_L": 0, "resolution_s": 3, "values": [0.0] * 8},
    {"level_L": "a", "resolution_s": 3, "origin": "0", "values": [0.0] * 8},
    [{"level_L": 0, "resolution_s": 3, "origin": "0", "values": [0.0] * 8}],
    # 2^(0.5 + 2.5) = 8 cells, which a level and resolution cut to ints
    # would have counted as 4
    {"level_L": 0.5, "resolution_s": 2.5, "origin": "0", "values": [0.0] * 8},
])
def test_cli_file_function_that_from_json_cannot_read_exits_2(payload, tmp_path, capsys):
    # the first three ended in a KeyError or TypeError traceback (exit 1)
    g = tmp_path / "g.json"
    g.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--op", "maximal", "--fn", f"file:{g}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "sharpwt: error: a grid function's JSON has int level_L and resolution_s, origin and values: ")


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


def test_cli_apply_gtilde_dictionary(tmp_path, capsys):
    # apply has no --mode: gtilde runs in lp mode, above the dictionary's
    # certified lower bound
    out = tmp_path / "g.csv"
    assert main(["apply", "--op", "gtilde", "--fn", "haar:0:1", "--res", "5", "--out", str(out)]) == 0
    got = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    f = parse_function("haar:0:1", 5)
    assert got.tobytes() == g_tilde(f).values.tobytes()
    lower = g_tilde(f, mode="dictionary").values
    assert np.all(got >= lower) and np.any(got > lower)
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--op", "gtilde", "--fn", "haar:0:1", "--res", "5", "--mode", "dictionary"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_cli_file_weight_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "w.json"
    values = ["1.0"] * 16
    values[5] = bad  # json writes non-finite floats as these tokens
    path.write_text('{"level_L": 0, "resolution_s": 4, "origin": "0", "values": [%s]}' % ", ".join(values))
    with pytest.raises(ValueError, match="finite"):
        parse_function(f"file:{path}", 4)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sharpwt.cli", "ap", "--weight", f"file:{path}",
                           "--p", "2", "--res", "4"], capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "finite" in proc.stderr


FLAGS = {
    "exponent": "--out --res --run --op --p --deltas --family --window",
    "ratio-scan": "--seed --out --lemma --n",
    "decompose": "--out --res --fn",
    "verify": "--in",
    "apply": "--out --res --op --fn",
    "ap": "--res --weight --p",
}


def test_cli_flag_sets():
    """Each subcommand has exactly the flags it reads, and there are no global ones."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.option_strings for a in parser._actions if a is not sub] == [["-h", "--help"]]
    got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == {name: set(flags.split()) for name, flags in FLAGS.items()}


# apply: the retired cone flags, which no operator reads; each runs at its one setting
CONE_VALUES = {"--alpha": "0.9", "--q": "5", "--beta": "7", "--mode": "dictionary", "--nodes-per-box": "4"}
APPLY_UNREAD = [(op, flag, value) for op in OPERATOR_REGISTRY for flag, value in CONE_VALUES.items()]


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
    # generated functions live on [0, 1), and a scan runs at its lemma's resolution
    ["decompose", "--fn", "random:3", "--L", "1"],
    ["decompose", "--fn", "random:3", "--origin", "-1"],
    ["apply", "--op", "maximal", "--fn", "random:3", "--L", "1"],
    ["apply", "--op", "maximal", "--fn", "random:3", "--origin", "-1"],
    ["ap", "--weight", "const:2", "--L", "1"],
    ["ap", "--weight", "const:2", "--origin", "-1"],
    ["ratio-scan", "--lemma", "4.3", "--res", "7"],
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


@pytest.mark.parametrize("op, flags", [
    ("maximal", ""), ("sd", ""), ("hilbert", ""), ("hilbert-max", ""), ("gpsi", ""),
    ("spsi", ""), ("galpha", ""), ("gtilde", ""),
])
def test_cli_apply_takes_the_flags_its_operator_reads(op, flags, tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main(["apply", "--op", op, "--fn", "random:3", "--res", "4", "--out", str(out), *flags.split()])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 17


@pytest.mark.parametrize("argv", [
    ["exponent", "--op", "sd", "--p", "1"],
    ["ap", "--weight", "const:0"],
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
    ["apply", "--op", "gpsi", "--fn", "const:1", "--res", "0"],
    ["apply", "--op", "galpha", "--fn", "file:missing.json"],
    ["apply", "--op", "maximal", "--fn", "const:1", "--res", "-3"],
    ["ap", "--weight", "const:1", "--res", "-2"],
    ["ap", "--weight", "power:0.5", "--res", "-2"],
    ["exponent", "--op", "sd", "--res", "-3"],
    ["decompose", "--fn", "const:nan", "--res", "3"],
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


def test_cli_seed_picks_the_random_function(tmp_path, capsys):
    def run(spec):
        out = tmp_path / f"g{spec.replace(':', '-')}.csv"
        assert main(["apply", "--op", "maximal", "--fn", spec, "--res", "3", "--out", str(out)]) == 0
        return out.read_bytes()

    assert run("random:5") != run("random:0")
    assert run("random:0") == run("random:")


@pytest.mark.parametrize("op, params", [
    *((op, {}) for op in ("maximal", "sd", "hilbert", "hilbert-max", "gpsi", "spsi", "galpha", "gtilde")),
    # the cone operators on another domain, which comes in through --fn file:
    *((op, {"level_L": 1, "resolution_s": 3, "origin": -1}) for op in ("spsi", "galpha", "gtilde")),
])
def test_cli_apply_writes_the_registry_operators_image(op, params, tmp_path, capsys):
    """The 16 values of random:3 at --res 4, on [0, 1) or on the grid of params."""
    out = tmp_path / "g.csv"
    f = parse_function("random:3", 4)
    fn = "random:3"
    if params:
        f = GridFunction(values=f.values, **params)
        fn = f"file:{tmp_path / 'f.json'}"
        (tmp_path / "f.json").write_text(json.dumps(f.to_json()))
    assert main(["apply", "--op", op, "--fn", fn, "--res", "4", "--out", str(out)]) == 0
    g = OPERATOR_REGISTRY[op](f)
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
