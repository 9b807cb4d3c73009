"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every binding of each traced function in the
loaded `sharpwt` modules (module globals, registry dicts such as
`harness.OPERATOR_REGISTRY`, and class attributes for methods) with a
wrapper that records one span per call: name, parent span, CPU and wall
start/end.  Spans stay in memory; `metrics()` derives call counts and self
time (the span's CPU time minus that of its traced children) from them, and
`write_spans()` writes them out once.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import sys
import time


def _engine_nodes(args, result):
    quad = args[0].quad
    return quad.n_boxes() * quad.nodes_per_box**2


def _cells(args, result):
    return args[0].ncells


def _cubes(args, result):
    return sum(len(gen) for gen in result.generations)


# (layer metric name, module, attribute path, counter name, counter)
TARGETS = (
    ("intrinsic.lp_sup", "sharpwt.intrinsic", "HolderClass.lp_sup", None, None),
    ("intrinsic.dict_sup", "sharpwt.intrinsic", "HolderClass.dict_sup", None, None),
    ("intrinsic.hat_coefficients", "sharpwt.intrinsic", "hat_coefficients", None, None),
    ("intrinsic.engine_build", "sharpwt.intrinsic", "SquareFunctionEngine.__init__",
     "intrinsic.nodes", _engine_nodes),
    ("intrinsic.g_cone", "sharpwt.intrinsic", "SquareFunctionEngine.g_cone", None, None),
    ("intrinsic.g_tilde", "sharpwt.intrinsic", "SquareFunctionEngine.g_tilde", None, None),
    ("operators.psi_convolve_at", "sharpwt.operators", "psi_convolve_at", None, None),
    ("operators.maximal", "sharpwt.operators", "maximal", "operators.maximal.cells", _cells),
    ("operators.hilbert_truncated", "sharpwt.operators", "hilbert_truncated", None, None),
    ("operators.dyadic_square", "sharpwt.operators", "dyadic_square", None, None),
    ("weights.ainfty_fujii", "sharpwt.weights", "ainfty_fujii", None, None),
    ("weights.ap_characteristic", "sharpwt.weights", "ap_characteristic", None, None),
    ("weights.weighted_lp_norm", "sharpwt.weights", "weighted_lp_norm", None, None),
    ("weights.power_weight", "sharpwt.weights", "power_weight", None, None),
    ("decomp.decompose", "sharpwt.decomp", "decompose", "decomp.cubes", _cubes),
    ("decomp.verify_decomposition", "sharpwt.decomp", "verify_decomposition", None, None),
    ("decomp.a_gamma", "sharpwt.decomp", "a_gamma", None, None),
    ("gridfn.GridFunction", "sharpwt.gridfn", "GridFunction.__init__", None, None),
    ("gridfn.median", "sharpwt.gridfn", "median", None, None),
    ("gridfn.local_osc", "sharpwt.gridfn", "local_osc", None, None),
    ("gridfn.local_sharp_max_dyadic", "sharpwt.gridfn", "local_sharp_max_dyadic", None, None),
    ("harness.cached_engine", "sharpwt.harness", "cached_engine", None, None),
    ("harness.ratio_scan", "sharpwt.harness", "ratio_scan", None, None),
    ("harness.exponent_experiment", "sharpwt.harness", "exponent_experiment", None, None),
    ("harness.emit", "sharpwt.harness", "emit", None, None),
    ("cli.main", "sharpwt.cli", "main", None, None),
)

CACHE_HIT_RATIO = "harness.engine_cache.hit_ratio"


def metric_names() -> list[str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for name, _, _, counter, _ in TARGETS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if counter:
            out.append((counter, "count"))
    out.append((CACHE_HIT_RATIO, "ratio"))
    return out


class Tracer:
    def __init__(self):
        # span: [name, parent index, cpu0, cpu1, wall0, wall1, amount]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack
        cpu, wall = time.process_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, cpu(), 0.0, wall(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = wall()
                rec[3] = cpu()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each target; targets the program no longer
        defines are skipped and read as zero calls."""
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "sharpwt" or key.startswith("sharpwt."))]
        for name, modname, path, _, counter in TARGETS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            if outer:  # a method: the class attribute is the only binding
                self._set(owner, attr, wrapper)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is original:
                                self._undo.append((val.__setitem__, dkey, dval))
                                val[dkey] = wrapper

    def _set(self, obj, key, value) -> None:
        self._undo.append((functools.partial(setattr, obj), key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, val = self._undo.pop()
            setter(key, val)

    def metrics(self) -> dict[str, float]:
        child_cpu = [0.0] * len(self.spans)
        engine_under = [False] * len(self.spans)
        for i, (name, parent, c0, c1, *_rest) in enumerate(self.spans):
            if parent >= 0:
                child_cpu[parent] += c1 - c0
            if name == "intrinsic.engine_build":
                j = parent
                while j >= 0:
                    engine_under[j] = True
                    j = self.spans[j][1]
        out = {key: 0.0 if unit == "s" else 0 for key, unit in metric_names()}
        counters = {name: counter for name, _, _, counter, _ in TARGETS}
        hits = 0
        for i, (name, _, c0, c1, _, _, amount) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (c1 - c0) - child_cpu[i]
            if counters[name]:
                out[counters[name]] += amount
            if name == "harness.cached_engine" and not engine_under[i]:
                hits += 1
        calls = out["harness.cached_engine.calls"]
        out[CACHE_HIT_RATIO] = hits / calls if calls else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,cpu_start,cpu_end,wall_start,wall_end,amount\n")
            for i, (name, parent, c0, c1, w0, w1, amount) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{c0!r},{c1!r},{w0!r},{w1!r},{amount}\n")
