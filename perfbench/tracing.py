"""Spans and counts around the public functions of each ``coslie`` module.

``Tracer.install()`` replaces every public function of the coslie modules,
and ``CosymplecticStructure.make``, by a wrapper.  It does so in every
module namespace that binds the function, because ``from .x import f``
copies the binding.  ``uninstall()`` puts the originals back.  Each call
records a span (name, layer, start, end, parent, info, error) in memory;
``info`` is a size taken from the arguments (or, for two functions, from
the result), so every count repeats exactly for the same inputs.

Very hot helpers stay unwrapped: scalar arithmetic and vector helpers,
``Poly``/``RatFn`` arithmetic and every method such as ``LsaTable.product``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Module name -> layer name; the layer of a span is the module it wraps.
LAYERS = ("scalars", "lie_core", "exterior", "cosymplectic", "extensions",
          "catalog", "verify", "algfile", "cli")

UNWRAPPED = {
    "scalars": {
        "as_scalar", "is_zero", "scalars_equal", "add", "sub", "mul", "neg",
        "is_rational", "to_fraction", "scalar_str", "poly_eval", "scalar_subs",
        "scalar_variables", "vec", "zero_vec", "basis_vec", "vec_add", "vec_sub",
        "vec_scale", "vec_is_zero", "vecs_equal", "identity_matrix",
    },
}

EXISTS = "cosymplectic.exists_cosymplectic"
CONSTRUCTS = {"extensions.construct_A", "extensions.construct_B", "extensions.construct_C"}
PARSERS = {"algfile.parse_algebra", "algfile.parse_extension", "algfile.parse_map"}


def _det_info(args):
    m = args[0]
    return len(m), any(not isinstance(x, (int, Fraction)) for row in m for x in row)


def _unknowns(args):
    n = args[0].dim
    return n + n * (n - 1) // 2


# sizes recorded from the arguments
ARG_INFO = {
    "scalars.rref": lambda args: len(args[0]) * len(args[0][0]) if args[0] else 0,
    "scalars.det_poly": _det_info,
    "exterior.cocycle_spaces": _unknowns,
    **{name: (lambda args: len(args[0].encode("utf-8"))) for name in PARSERS},
}
# facts recorded from the result
RESULT_INFO = {
    EXISTS: lambda result: bool(result.exists),
    "verify.verify_all": lambda result: len(result.results),
}

# (name, unit, better): every metric a traced run reports
METRICS = [
    ("scalars.self_s", "s", "lower"),
    ("scalars.rref.calls", "count", "lower"),
    ("scalars.rref.cells", "count", "lower"),
    ("scalars.solve_rational.calls", "count", "lower"),
    ("scalars.solve_poly.calls", "count", "lower"),
    ("scalars.det_poly.calls", "count", "lower"),
    ("scalars.det_poly.symbolic_calls", "count", "lower"),
    ("scalars.det_poly.order_sum", "count", "lower"),
    ("scalars.ratfn.calls", "count", "lower"),
    ("lie_core.self_s", "s", "lower"),
    ("lie_core.bracket.calls", "count", "lower"),
    ("lie_core.check_jacobi.calls", "count", "lower"),
    ("lie_core.is_derivation.calls", "count", "lower"),
    ("exterior.self_s", "s", "lower"),
    ("exterior.d2.calls", "count", "lower"),
    ("exterior.volume_coeff.calls", "count", "lower"),
    ("exterior.cocycle_spaces.calls", "count", "lower"),
    ("exterior.cocycle_spaces.unknowns", "count", "lower"),
    ("cosymplectic.self_s", "s", "lower"),
    ("cosymplectic.structures", "count", "lower"),
    ("cosymplectic.kernel_symplectic.calls", "count", "lower"),
    ("cosymplectic.symplectic_lsa.calls", "count", "lower"),
    ("cosymplectic.cosymplectic_lsa.calls", "count", "lower"),
    ("cosymplectic.left_symmetry_defect.calls", "count", "lower"),
    ("cosymplectic.biinvariance.calls", "count", "lower"),
    ("cosymplectic.kernel_per_structure", "ratio", "lower"),
    ("cosymplectic.exists.calls", "count", "lower"),
    ("cosymplectic.exists.points_tried", "count", "lower"),
    ("cosymplectic.exists.witness_ratio", "ratio", "higher"),
    ("cosymplectic.exists.symbolic_det_s", "s", "lower"),
    ("extensions.self_s", "s", "lower"),
    ("extensions.construct.calls", "count", "lower"),
    ("extensions.conditions_failed", "count", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.instantiate.calls", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("algfile.self_s", "s", "lower"),
    ("algfile.parse.calls", "count", "lower"),
    ("algfile.parse.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.stdout_bytes = 0
        self._saved: list = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        arg_info, result_info = ARG_INFO.get(name), RESULT_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            info = arg_info(args) if arg_info else None
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, info, error)
            if result_info:
                spans[idx] = (name, layer, start, end, parent, result_info(result), error)
            return result

        return wrapper

    def install(self) -> None:
        from coslie.cosymplectic import CosymplecticStructure

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("coslie." + layer)
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in UNWRAPPED.get(layer, ())
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        namespaces = [m for n, m in sys.modules.items() if n == "coslie" or n.startswith("coslie.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        make = CosymplecticStructure.__dict__["make"]
        self._saved.append((CosymplecticStructure, "make", make))
        CosymplecticStructure.make = staticmethod(
            self._wrap(make.__func__, "cosymplectic.CosymplecticStructure.make", "cosymplectic")
        )

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    # -- metrics ----------------------------------------------------------
    def metrics(self, overhead_ratio: float) -> dict:
        spans = self.spans
        calls = defaultdict(int)
        child_time = [0.0] * len(spans)
        in_exists = [False] * len(spans)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        for i, (name, layer, start, end, parent, info, error) in enumerate(spans):
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
                in_exists[i] = in_exists[parent] or spans[parent][0] == EXISTS
            if name == "scalars.rref":
                sums["scalars.rref.cells"] += info
            elif name == "scalars.det_poly":
                order, symbolic = info
                sums["scalars.det_poly.order_sum"] += order
                sums["scalars.det_poly.symbolic_calls"] += symbolic
                if in_exists[i]:
                    if symbolic:
                        sums["cosymplectic.exists.symbolic_det_s"] += end - start
                    else:
                        sums["cosymplectic.exists.points_tried"] += 1
            elif name == "exterior.cocycle_spaces":
                sums["exterior.cocycle_spaces.unknowns"] += info
            elif name == EXISTS:
                sums["cosymplectic.exists.yes"] += info
            elif name == "verify.verify_all":
                sums["verify.checks"] += info
            elif name in PARSERS:
                sums["algfile.parse.calls"] += 1
                sums["algfile.parse.bytes"] += info
            elif name in CONSTRUCTS:
                sums["extensions.construct.calls"] += 1
                sums["extensions.conditions_failed"] += error == "ConditionsFail"
        for i, (name, layer, start, end, *_rest) in enumerate(spans):
            self_s[layer] += end - start - child_time[i]

        structures = calls["cosymplectic.CosymplecticStructure.make"]
        points = sums["cosymplectic.exists.points_tried"]
        values = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        for short in ("rref", "solve_rational", "solve_poly", "det_poly", "ratfn"):
            values[f"scalars.{short}.calls"] = calls["scalars." + short]
        for short in ("bracket", "check_jacobi", "is_derivation"):
            values[f"lie_core.{short}.calls"] = calls["lie_core." + short]
        for short in ("d2", "volume_coeff", "cocycle_spaces"):
            values[f"exterior.{short}.calls"] = calls["exterior." + short]
        for short in ("kernel_symplectic", "symplectic_lsa", "cosymplectic_lsa",
                      "left_symmetry_defect", "biinvariance"):
            values[f"cosymplectic.{short}.calls"] = calls["cosymplectic." + short]
        values.update({
            "cosymplectic.structures": structures,
            "cosymplectic.kernel_per_structure":
                calls["cosymplectic.kernel_symplectic"] / structures if structures else 0.0,
            "cosymplectic.exists.calls": calls[EXISTS],
            "cosymplectic.exists.witness_ratio":
                sums["cosymplectic.exists.yes"] / points if points else 0.0,
            "catalog.instantiate.calls": calls["catalog.instantiate"],
            "cli.main.calls": calls["cli.main"],
            "cli.stdout_bytes": self.stdout_bytes,
            "trace.spans": len(spans),
            "trace.overhead_ratio": overhead_ratio,
        })
        for key in ("scalars.rref.cells", "scalars.det_poly.order_sum",
                    "scalars.det_poly.symbolic_calls", "exterior.cocycle_spaces.unknowns",
                    "cosymplectic.exists.points_tried", "cosymplectic.exists.symbolic_det_s",
                    "verify.checks", "algfile.parse.calls", "algfile.parse.bytes",
                    "extensions.construct.calls", "extensions.conditions_failed"):
            values[key] = sums[key]
        out = {}
        for name, unit, _ in METRICS:
            v = values[name]
            out[name] = {"value": int(v) if unit in ("count", "bytes") else v, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tlayer\tstart\tend\tparent\tinfo\terror\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
