"""Span recorder for the traced run, wrapped around vekua's public functions.

``vekua`` has no tracing of its own, so the recorder replaces each public
function at every module attribute that binds it (modules import each other
with ``from .grid import d_x``, so patching ``vekua.grid`` alone would miss
those callers) and each public method on its class.  A span is recorded per
call: name, layer, start, end, parent span and the benchmark operation that
caused it.  Spans stay in memory until the run ends; :func:`layer_metrics`
turns them into the per-layer metrics.

Self time is a span's duration minus the durations of its child spans (calls
are synchronous, so children never overlap).  A layer's inclusive time counts
only its outermost spans, so a stencil called from another stencil is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = (
    "grid",
    "superpotential",
    "operators",
    "transmutation",
    "formal_powers",
    "conjugate",
    "expansion",
    "fields_io",
    "cli",
    "verification",
)

# (module, function or Class.method, layer).  The operators module is traced
# through its whole ``__all__`` (see :func:`_targets`).
TARGETS = (
    ("grid", "d_x", "grid.stencil"),
    ("grid", "d_y", "grid.stencil"),
    ("grid", "d_z", "grid.stencil"),
    ("grid", "d_zbar", "grid.stencil"),
    ("grid", "laplacian", "grid.stencil"),
    ("grid", "cumulative_integral", "grid.quad"),
    ("grid", "lpath_field", "grid.quad"),
    ("grid", "lpath_complex", "grid.quad"),
    ("superpotential", "Superpotential.u0", "superpotential.derived"),
    ("superpotential", "Superpotential.u2", "superpotential.derived"),
    ("superpotential", "Superpotential.matrix_potential", "superpotential.derived"),
    ("superpotential", "Superpotential.dz_chi", "superpotential.derived"),
    ("superpotential", "Superpotential.dzbar_chi", "superpotential.derived"),
    ("superpotential", "Superpotential.exp_chi", "superpotential.derived"),
    ("operators", "h1_element", "operators"),
    ("transmutation", "solve_goursat", "transmutation.goursat"),
    ("transmutation", "build_transmute", "transmutation.build"),
    ("transmutation", "build_transmute_tilde", "transmutation.build"),
    ("transmutation", "build_transmute_2d", "transmutation.build"),
    ("transmutation", "ttilde_antiderivative_form", "transmutation.tilde_check"),
    ("transmutation", "TransmuteOp.__call__", "transmutation.apply"),
    ("transmutation", "TransmuteOp.along_x", "transmutation.apply"),
    ("transmutation", "TransmuteOp.along_y", "transmutation.apply"),
    ("transmutation", "Transmute2D.t0", "transmutation.apply"),
    ("transmutation", "Transmute2D.t1", "transmutation.apply"),
    ("formal_powers", "assemble_formal_powers", "formal_powers.assemble"),
    ("formal_powers", "build_aux_system", "formal_powers.assemble"),
    ("formal_powers", "fg_integral", "formal_powers.fg_integral"),
    ("conjugate", "conjugate_from_w1", "conjugate"),
    ("conjugate", "conjugate_from_w2", "conjugate"),
    ("conjugate", "abar_op", "conjugate"),
    ("conjugate", "a_op", "conjugate"),
    ("conjugate", "fit_gauge", "conjugate"),
    ("expansion", "fit_formal_polynomial", "expansion.fit"),
    ("expansion", "taylor_coefficients", "expansion.taylor"),
    ("fields_io", "read_field_csv", "fields_io.read"),
    ("fields_io", "write_field_csv", "fields_io.write"),
    ("fields_io", "write_grid_meta", "fields_io.write"),
    ("cli", "main", "cli"),
    ("verification", "run_battery", "verification"),
)

# Computed (not measured) kernel cost models.
# Picard sweep on the N x N characteristic grid: one product q*K, two
# cumulative trapezoids (add, scale, cumsum, origin shift: 4 flops a node
# each), the data add and the defect (subtract, abs, max): 13 flops and 33
# float64 array passes per node.
PICARD_FLOPS_PER_NODE = 13
PICARD_PASSES_PER_NODE = 33

# Per-layer metrics: (name, unit).  Every traced run emits all of them.
PER_LAYER = (
    ("grid.stencil_calls", "count"),
    ("grid.stencil_s", "s"),
    ("grid.quad_calls", "count"),
    ("grid.quad_s", "s"),
    ("superpotential.derived_calls", "count"),
    ("superpotential.derived_s", "s"),
    ("superpotential.recompute_ratio", "ratio"),
    ("operators.calls", "count"),
    ("transmutation.goursat_calls", "count"),
    ("transmutation.goursat_s", "s"),
    ("transmutation.picard_iters", "count"),
    ("transmutation.picard_gflop", "GFLOP"),
    ("transmutation.picard_gbytes", "GB"),
    ("transmutation.build_s", "s"),
    ("transmutation.tilde_check_s", "s"),
    ("transmutation.apply_calls", "count"),
    ("transmutation.apply_s", "s"),
    ("transmutation.apply_gflop", "GFLOP"),
    ("transmutation.apply_gbytes", "GB"),
    ("formal_powers.assemble_s", "s"),
    ("formal_powers.fg_integral_calls", "count"),
    ("formal_powers.fg_integral_s", "s"),
    ("conjugate.calls", "count"),
    ("conjugate.s", "s"),
    ("expansion.fit_s", "s"),
    ("expansion.taylor_s", "s"),
    ("fields_io.read_s", "s"),
    ("fields_io.write_s", "s"),
    ("fields_io.bytes", "bytes"),
    *((f"{module}.self_s", "s") for module in MODULES),
    ("verification.worst_headroom", "ratio"),
    ("verification.worst_headroom.zero", "ratio"),
    ("verification.worst_headroom.linear", "ratio"),
    ("verification.worst_headroom.quadratic", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.spans", "count"),
)

# Kernel counts computed from array shapes and the cost models above, not measured.
COMPUTED = frozenset({
    "transmutation.picard_gflop",
    "transmutation.picard_gbytes",
    "transmutation.apply_gflop",
    "transmutation.apply_gbytes",
})

# span fields, in the order they are stored and written out
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "op", "outermost", "extra")


def _targets():
    operators = importlib.import_module("vekua.operators")
    extra = tuple(("operators", name, "operators") for name in operators.__all__)
    return TARGETS + extra


class Tracer:
    """Records spans while installed and recording; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []
        self._derived_keys: set = set()
        self._instances: dict = {}  # keeps the ids in the derived keys unique

    # -- installation ----------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(f"vekua.{name}") for name in MODULES}
        importlib.import_module("vekua")
        wrapped = {}
        for module_name, qualname, layer in _targets():
            owner = modules[module_name]
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if id(original) in wrapped:
                continue
            wrapper = self._wrap(original, f"{module_name}.{qualname}", layer)
            wrapped[id(original)] = (original, wrapper)
            if cls_name:
                self._patch(owner, attr, wrapper, original)
        # every module attribute bound to a traced function, in any vekua module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vekua" or mod_name.startswith("vekua.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1], value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name, layer):
        after = _AFTER.get(layer)
        derived = layer == "superpotential.derived"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    tracer._depth[layer] == 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._depth[layer] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._depth[layer] -= 1
                stack.pop()
            if derived:
                tracer._instances[id(args[0])] = args[0]
                tracer._derived_keys.add(
                    (id(args[0]), name, args[1:], tuple(sorted(kwargs.items())))
                )
            elif after is not None:
                span[7] = after(args, result)
            return result

        return traced

    def distinct_derived(self) -> int:
        return len(self._derived_keys)

    def spans_record(self) -> dict:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], s[2] - t0, s[3] - t0, s[4], s[5], s[6], s[7]] for s in self.spans]
        return {"fields": list(SPAN_FIELDS), "missing_targets": self.missing, "spans": rows}


def _goursat_extra(args, kernel):
    iterations = getattr(kernel, "iterations", None)
    grid = getattr(kernel, "char_values", None)
    if iterations is None or grid is None:
        return None
    return {"iterations": int(iterations), "nodes": int(np.shape(grid)[0])}


def _apply_extra(args, result):
    # along_x / along_y / __call__: one product of the n x n matrix with the
    # argument; numpy upcasts the real matrix for a complex argument
    # (t0/t1 record nothing themselves: their products are child spans)
    if len(args) < 2 or not hasattr(args[0], "matrix"):
        return None
    n = args[0].matrix.shape[0]
    field = np.asarray(args[1])
    complex_arg = np.iscomplexobj(field)
    flops = (8 if complex_arg else 2) * n * field.size
    itemsize = 16 if complex_arg else 8
    return {"flops": int(flops), "bytes": int(itemsize * (n * n + 2 * field.size))}


def _io_extra(args, result):
    path = args[0]
    try:
        return {"bytes": int(os.path.getsize(path))}
    except (OSError, TypeError):
        return None


_AFTER = {
    "transmutation.goursat": _goursat_extra,
    "transmutation.apply": _apply_extra,
    "fields_io.read": _io_extra,
    "fields_io.write": _io_extra,
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, extras: dict) -> dict:
    """Per-layer metrics of one traced pass; ``extras`` supplies the non-span values."""
    spans = tracer.spans
    child = np.zeros(len(spans))
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    calls = Counter()
    inclusive = defaultdict(float)
    self_layer = defaultdict(float)
    self_module = defaultdict(float)
    sums = defaultdict(float)
    for i, s in enumerate(spans):
        name, layer, start, end, _, _, outermost, extra = s
        duration = end - start
        calls[layer] += 1
        if outermost:
            inclusive[layer] += duration
        self_time = duration - child[i]
        self_layer[layer] += self_time
        self_module[layer.split(".")[0]] += self_time
        if extra:
            for key, value in extra.items():
                sums[(layer, key)] += value
        if layer == "transmutation.goursat" and extra:
            n2 = extra["nodes"] ** 2
            sums["picard_flops"] += PICARD_FLOPS_PER_NODE * n2 * extra["iterations"]
            sums["picard_bytes"] += 8 * PICARD_PASSES_PER_NODE * n2 * extra["iterations"]
    derived_calls = calls["superpotential.derived"]
    distinct = tracer.distinct_derived()
    values = {
        "grid.stencil_calls": calls["grid.stencil"],
        "grid.stencil_s": inclusive["grid.stencil"],
        "grid.quad_calls": calls["grid.quad"],
        "grid.quad_s": inclusive["grid.quad"],
        "superpotential.derived_calls": derived_calls,
        "superpotential.derived_s": inclusive["superpotential.derived"],
        "superpotential.recompute_ratio": derived_calls / distinct if distinct else 0.0,
        "operators.calls": calls["operators"],
        "transmutation.goursat_calls": calls["transmutation.goursat"],
        "transmutation.goursat_s": inclusive["transmutation.goursat"],
        "transmutation.picard_iters": int(sums[("transmutation.goursat", "iterations")]),
        "transmutation.picard_gflop": sums["picard_flops"] / 1e9,
        "transmutation.picard_gbytes": sums["picard_bytes"] / 1e9,
        "transmutation.build_s": self_layer["transmutation.build"],
        "transmutation.tilde_check_s": inclusive["transmutation.tilde_check"],
        "transmutation.apply_calls": calls["transmutation.apply"],
        "transmutation.apply_s": inclusive["transmutation.apply"],
        "transmutation.apply_gflop": sums[("transmutation.apply", "flops")] / 1e9,
        "transmutation.apply_gbytes": sums[("transmutation.apply", "bytes")] / 1e9,
        "formal_powers.assemble_s": inclusive["formal_powers.assemble"],
        "formal_powers.fg_integral_calls": calls["formal_powers.fg_integral"],
        "formal_powers.fg_integral_s": inclusive["formal_powers.fg_integral"],
        "conjugate.calls": calls["conjugate"],
        "conjugate.s": inclusive["conjugate"],
        "expansion.fit_s": inclusive["expansion.fit"],
        "expansion.taylor_s": inclusive["expansion.taylor"],
        "fields_io.read_s": inclusive["fields_io.read"],
        "fields_io.write_s": inclusive["fields_io.write"],
        "fields_io.bytes": int(sums[("fields_io.read", "bytes")] + sums[("fields_io.write", "bytes")]),
    }
    for module in MODULES:
        values[f"{module}.self_s"] = self_module[module]
    # headroom exists only where the battery ran
    values.update({name: 0.0 for name, _ in PER_LAYER if name.startswith("verification.worst")})
    values.update(extras)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.remainder_s"] = traced_wall - sum(self_module.values())
    values["trace.spans"] = len(spans)
    return values
