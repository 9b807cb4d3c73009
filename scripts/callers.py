"""Who reaches each function of src/sharpwt: Tier-1 tests and benchmark workloads.

    python3 scripts/callers.py

Needs Python 3.11 or later (`co_qualname`).  Runs Tier-1 (pytest on
tests/) in this process under a `sys.setprofile` hook, then builds the
inputs of each workload in perfbench/workload.py from seed `SEED` (3),
runs its body once into a temporary directory with perfbench/tracer.py's
`Tracer` installed, as a traced benchmark round does, and then runs the
workload's checks.  Every Python
call into a src/sharpwt file is recorded against the test file whose test
was running, against `workload:<name>` (inputs, body, tracer counters and
checks), or against `(import)` for calls
made while test modules are collected and import sharpwt.  Calls made in
subprocesses that tests start (the CLI and fresh-interpreter checks) are
not seen.  Module caches are cleared before each workload, so that a
cache filled by a test does not hide the calls a workload makes.

Functions are keyed by file and `co_qualname`, not by line,
since decorators shift `co_firstlineno`; nested functions and
comprehensions are keyed as their own code objects.

Each call into a public function (no component of the qualified name
starts with `_` or `<`; a class's `__init__` counts as the class) also
records the value of each parameter that is a scalar: int, float, str,
bool, None, Fraction, or a tuple of these.  A dataclass's generated
`__init__`, which has no source file, is filed under its class's file.
A value counts as `test` when the calling frame's file is under tests/,
and as `program` otherwise (perfbench, pytest, src/sharpwt itself) --
except that a src caller which received the value unchanged (the same
object) as its own parameter of the same name passes it on: the value
then counts for that caller's caller, and so on up the stack.  A
program call that passes a parameter anything else (an array, a grid
function) marks that parameter as data, never a setting.  Two kinds of
value still count as a program's: the argv values of a test's
in-process `cli.main` call, and values that a src method copies from an
object a test built (a spec's fields read by a method of the spec).

Prints one JSON document: for each function of src/sharpwt, the test files
and workloads that reach it; `own_test_only`, the public functions that
nothing reaches but the unit test of their own module,
tests/test_<module>.py, or that nothing reaches at all; and
`test_only_settings`, the parameters of public functions to which
programs pass one value, a scalar, and tests pass others,
each with those values and, if it is in `KEPT`, the reason it stays.
Pytest's and the workloads' output goes to stderr.  Nothing is written
into the repository: the run works in a temporary directory, writes no
bytecode and turns off pytest's cache.
Exits 1 when a test, a workload operation or a workload check failed
(each failed check counts as a failed operation), since the trace is then
incomplete; when `own_test_only` is not empty, since the design aim is
no public API whose only caller is its own unit test; and when a setting
of `test_only_settings` is not in `KEPT`, since a setting that only tests
set is a constant.  Takes about two minutes on a 2-vCPU machine (123 s,
Tier-1 under the hook 114 s; 117 s before the constructor and
pass-through rules).
It is not part of Tier-1, like `perfbench` and scripts/ablate.py.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from fractions import Fraction
from pathlib import Path

if sys.version_info < (3, 11):
    sys.exit("callers.py needs Python 3.11 or later: it keys functions by co_qualname")

SEED = 3  # of the workload inputs
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sharpwt"
TESTS = str(ROOT / "tests") + os.sep

# test-only settings that stay, each with the reason
KEPT = {
    "gridfn.py:median.cube": "the per-call oracle of SortedBlocks.medians: tests pass "
                             "every block, programs the whole grid",
}

SCALARS = (int, float, str, bool, type(None), Fraction)
NAN = float("nan")  # one object, so that a set holds one NaN
DATA = object()  # stands for every non-scalar value a program passes


def scalar(value) -> bool:
    if isinstance(value, tuple):
        return all(isinstance(v, SCALARS) for v in value)
    return isinstance(value, SCALARS)


def public(qualname: str) -> bool:
    """No component starts with `_` or `<`; a class's `__init__` counts as
    the class, since its arguments are the class's settings."""
    parts = qualname.split(".")
    if len(parts) > 1 and parts[-1] == "__init__":
        parts.pop()
    return not any(part.startswith(("_", "<")) for part in parts)


def src_functions() -> dict[tuple[str, str], None]:
    """(file name, co_qualname) of every code object below the module level
    of each src/sharpwt file, in source order."""
    out = {}

    def walk(code: types.CodeType, name: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                out[(name, const.co_qualname)] = None
                walk(const, name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name)
    return out


class CallRecorder:
    """A profile hook that files each call into src/sharpwt under the reacher
    currently set, and the scalar arguments of each call into a public
    function under `test` or `program`."""

    def __init__(self):
        self.files = {str(p): p.name for p in SRC.glob("*.py")}
        self.reached: dict[str, set[tuple[str, str]]] = {}
        self.now = self.reached.setdefault("(import)", set())
        self.params: dict[types.CodeType, tuple[str, ...]] = {}
        # a dataclass's generated __init__ -> (file, qualname) of its class, or None
        self.generated: dict[types.CodeType, tuple[str, str] | None] = {}
        # (file, qualname, parameter) -> {"test": values, "program": values}
        self.values: dict[tuple[str, str, str], dict[str, set]] = {}
        self.previous = (None, None)

    def reacher(self, name: str) -> None:
        self.now = self.reached.setdefault(name, set())

    def key(self, frame) -> tuple[str, str] | None:
        """(src file, qualname) of the frame's function, or None outside
        src/sharpwt.  A dataclass's generated `__init__` has no file; it is
        filed under its class's."""
        code = frame.f_code
        name = self.files.get(code.co_filename)
        if name is not None:
            return name, code.co_qualname
        if code.co_name != "__init__" or code.co_filename != "<string>":
            return None
        if code not in self.generated:
            self.generated[code] = None
            for cls in type(frame.f_locals[code.co_varnames[0]]).__mro__:
                init = vars(cls).get("__init__")
                if getattr(init, "__code__", None) is code:
                    name = self.files.get(getattr(sys.modules.get(cls.__module__), "__file__", None))
                    if name is not None:
                        self.generated[code] = name, f"{cls.__qualname__}.__init__"
                    break
        return self.generated[code]

    def side(self, caller, param: str, value) -> str:
        """`test` when the value came from a test frame: directly, or through
        src callers that each received it unchanged (the same object) as
        their own parameter `param`; `program` otherwise."""
        while caller is not None and caller.f_code.co_filename in self.files:
            code = caller.f_code
            if param not in code.co_varnames[: code.co_argcount + code.co_kwonlyargcount] \
                    or caller.f_locals.get(param, DATA) is not value:
                return "program"
            caller = caller.f_back
        return "test" if caller is not None and caller.f_code.co_filename.startswith(TESTS) else "program"

    def __call__(self, frame, event, arg) -> None:
        if event != "call":
            return
        key = self.key(frame)
        if key is None:
            return
        self.now.add(key)
        code = frame.f_code
        params = self.params.get(code)
        if params is None:
            n = code.co_argcount + code.co_kwonlyargcount
            params = self.params[code] = code.co_varnames[:n] if public(key[1]) else ()
        args = frame.f_locals
        for param in params:
            value = args.get(param, DATA)
            side = self.side(frame.f_back, param, value)
            if not scalar(value):
                if side == "test":
                    continue
                value = DATA
            elif isinstance(value, float) and value != value:
                value = NAN
            seen = self.values.setdefault((*key, param), {"test": set(), "program": set()})
            seen[side].add(value)

    def install(self) -> None:
        """Sets the hook, keeping the hooks it replaces for `uninstall`."""
        self.previous = (sys.getprofile(), threading.getprofile())
        threading.setprofile(self)
        sys.setprofile(self)

    def uninstall(self) -> None:
        sys.setprofile(self.previous[0])
        threading.setprofile(self.previous[1])


class ReacherPlugin:
    """Pytest plugin: each test's setup, call and teardown are filed under
    its test file."""

    def __init__(self, rec: CallRecorder):
        self.rec = rec

    def pytest_runtest_protocol(self, item, nextitem):
        self.rec.reacher(item.nodeid.split("::")[0])


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("sharpwt"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_tier1(rec: CallRecorder, tmp: Path) -> int:
    import pytest

    args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
            "-c", str(ROOT / "pyproject.toml"), "--basetemp", str(tmp / "pytest")]
    with contextlib.redirect_stdout(sys.stderr):
        return int(pytest.main(args, plugins=[ReacherPlugin(rec)]))


def run_workloads(rec: CallRecorder, tmp: Path) -> dict[str, int]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workload
    from tracer import Tracer

    failed = {}
    for name, (make_inputs, body, check) in workload.WORKLOADS.items():
        work = tmp / name
        work.mkdir()
        clear_caches()
        rec.reacher(f"workload:{name}")
        rnd = workload.Round()
        inp = make_inputs(SEED)
        tracer = Tracer()  # its counters call into sharpwt, as in a traced round
        tracer.install()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                out = body(inp, rnd, work)
        finally:
            tracer.uninstall()
        failures = rnd.failures + check(inp, out)
        failed[name] = len(failures)
        for msg in failures:
            print(f"workload {name}: {msg}", file=sys.stderr)
    return failed


def list_test_only_settings(rec: CallRecorder) -> dict[str, dict]:
    """`file:qualname.parameter` of each parameter to which programs pass
    one value, a scalar, and tests pass others: the program's value, the
    number of other test values and the first few of them in repr order,
    and the `KEPT` reason or None."""
    out = {}
    for (name, qualname, param), seen in rec.values.items():
        program, others = seen["program"], seen["test"] - seen["program"]
        if len(program) == 1 and DATA not in program and others:
            key = f"{name}:{qualname}.{param}"
            shown = sorted(map(repr, others))
            out[key] = {"program": sorted(map(repr, program)), "test_values": len(shown),
                        "test": shown[:6], "kept": KEPT.get(key)}
    return dict(sorted(out.items()))


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip()
    functions = src_functions()
    rec = CallRecorder()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # hypothesis keeps its example database under the working directory
        os.environ["SHARPWT_REPORT_DIR"] = str(Path(tmp) / "reports")
        rec.install()
        try:
            tier1_exit = run_tier1(rec, Path(tmp))
            failed_ops = run_workloads(rec, Path(tmp))
        finally:
            rec.uninstall()
            os.chdir(here)

    by_function: dict[tuple[str, str], list[str]] = {key: [] for key in functions}
    for reacher, keys in sorted(rec.reached.items()):
        for key in keys:
            by_function.setdefault(key, []).append(reacher)
    own_test_only = []
    for (name, qualname), reachers in by_function.items():
        if public(qualname) and set(reachers) <= {f"tests/test_{Path(name).stem}.py"}:
            own_test_only.append(f"{name}:{qualname}")
    settings = list_test_only_settings(rec)
    print(json.dumps({
        "commit": describe,
        "seed": SEED,
        "tier1_exit_code": tier1_exit,
        "workload_failures": failed_ops,
        "functions": {f"{name}:{qualname}": reachers for (name, qualname), reachers in by_function.items()},
        "own_test_only": own_test_only,
        "test_only_settings": settings,
    }, indent=2))
    unkept = [key for key in settings if key not in KEPT]
    return 1 if tier1_exit or any(failed_ops.values()) or own_test_only or unkept else 0


if __name__ == "__main__":
    sys.exit(main())
