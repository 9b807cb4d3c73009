"""The call trace, scripts/callers.py, files each scalar argument of a call
into a public src function under `test` or `program`; a setting that only
tests set is found by these rules, so a rule that stops holding fails here
and not in a trace run."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sharpwt.gridfn import GridFunction
from sharpwt.harness import ExperimentSpec
from sharpwt.intrinsic import g_tilde
from sharpwt.weights import Weight, power_weight

if sys.version_info < (3, 11):
    pytest.skip("scripts/callers.py keys functions by co_qualname (Python 3.11)", allow_module_level=True)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import callers  # noqa: E402


def trace(call) -> dict:
    """The recorder's values for the calls that `call()` makes."""
    rec = callers.CallRecorder()
    rec.install()
    try:
        call()
    finally:
        rec.uninstall()
    return rec.values


@pytest.mark.parametrize("flag", [False, True])
def test_importing_the_recorder_leaves_bytecode_writing_as_it_was(flag, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", flag)
    monkeypatch.setattr(sys, "path", list(sys.path))
    importlib.reload(callers)
    assert sys.dont_write_bytecode is flag


def test_a_value_passed_on_unchanged_counts_for_the_test_that_passed_it():
    # g_tilde hands its mode to intrinsic_engine, which hands it on to
    # intrinsic_engines: the value is the test's, not the wrappers'
    f = GridFunction(0, 3, np.arange(8.0))
    values = trace(lambda: g_tilde(f, mode="dictionary"))
    for qualname in ("g_tilde", "intrinsic_engine", "intrinsic_engines"):
        assert values[("intrinsic.py", qualname, "mode")] == {"test": {"dictionary"}, "program": set()}


def test_a_value_a_src_caller_sets_or_renames_is_the_programs():
    # power_weight(s, a) passes s on as resolution_s and sets level_L to 0;
    # it passes a on under another name, as PowerWeightSpec's exponent
    values = trace(lambda: power_weight(3, 0.5))
    grid = ("gridfn.py", "GridFunction.__init__")
    assert values[(*grid, "resolution_s")]["test"] == {3}
    assert values[(*grid, "level_L")] == {"test": set(), "program": {0}}
    assert values[("weights.py", "PowerWeightSpec.__init__", "exponent")] == {"test": set(), "program": {0.5}}


def test_a_dataclass_built_in_a_test_is_filed_under_its_class():
    values = trace(lambda: ExperimentSpec("sd", 2.0, (0.5, 0.25, 0.125, 0.0625), 8))
    assert values[("harness.py", "ExperimentSpec.__init__", "resolution_s")]["test"] == {8}
    assert values[("harness.py", "ExperimentSpec.__init__", "weight_family")]["test"] == {"buckley"}
    assert ("<string>", "ExperimentSpec.__init__", "resolution_s") not in values


def test_the_arguments_of_a_public_classs_init_are_recorded():
    base = GridFunction(0, 2, np.ones(4))
    values = trace(lambda: Weight(base))
    assert values[("weights.py", "Weight.__init__", "power")] == {"test": {None}, "program": set()}
