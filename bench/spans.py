"""Spans around haarkit's public functions, recorded from outside the library.

``install`` replaces each function in ``LAYERS`` by a wrapper, everywhere a
haarkit module holds a reference to it (``haarkit.cli.normalize``,
``haarkit.reynolds.integrate_tensor``, ...) and on the class for methods
(``Chart.evaluate_many``, ``HaarDensity.grid``).  A wrapper appends a span
(name, start, end, parent index, op id) to an in-memory list and adds the
layer's work counters.  Self times come from the spans afterwards.

A function missing from the library is skipped and reports zero, so the
benchmark keeps running when a later change removes or renames one.

This module imports no numpy, so that the traced CLI child measures a cold
``import haarkit.cli``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter


def _rows(result):
    return len(result)


# span name -> (module, attribute path, {counter: function of the result})
LAYERS = {
    "cli.handler": ("haarkit.cli", "main", {}),
    "chartlang.parse_chart": ("haarkit.chartlang", "parse_chart", {}),
    "charts.Chart.evaluate_many": ("haarkit.charts", "Chart.evaluate_many", {"points": _rows}),
    "charts.Chart.jacobian_many": ("haarkit.charts", "Chart.jacobian_many", {}),
    "charts.Chart.validate": ("haarkit.charts", "Chart.validate", {}),
    "quadrature.QuadratureRule.for_domain": ("haarkit.quadrature", "QuadratureRule.for_domain",
                                             {"nodes": lambda rule: len(rule.points)}),
    "haar.density_numeric_many": ("haarkit.haar", "density_numeric_many", {"points": _rows}),
    "haar.normalize": ("haarkit.haar", "normalize", {}),
    "haar.HaarDensity.grid": ("haarkit.haar", "HaarDensity.grid", {}),
    "haar.integrate_tensor": ("haarkit.haar", "integrate_tensor", {}),
    "sampling.sample": ("haarkit.sampling", "sample", {"rows": _rows}),
    "sampling.invert_cdf": ("haarkit.sampling", "invert_cdf",
                            {"targets": lambda x: getattr(x, "size", 1)}),
    "tensors.act_batch": ("haarkit.tensors", "act_batch", {"entries": lambda out: out.size}),
    "reynolds.reynolds_continuous": ("haarkit.reynolds", "reynolds_continuous", {}),
    "reynolds.reynolds_matrix": ("haarkit.reynolds", "reynolds_matrix", {}),
    "reynolds.invariant_rank": ("haarkit.reynolds", "invariant_rank", {}),
    "reynolds.dim_invariants_quadrature": ("haarkit.reynolds", "dim_invariants_quadrature", {}),
    "orbit.moment": ("haarkit.orbit", "moment", {}),
    "orbit.covariance": ("haarkit.orbit", "covariance", {}),
    "orbit.mc_moments": ("haarkit.orbit", "mc_moments", {}),
}

# Spans whose presence under a grid() call means the grid was computed.
GRID_WORK = ("haar.density_numeric_many", "charts.Chart.evaluate_many")

# The per-layer metrics the benchmark reports, with units.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.handler.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("chartlang.parse_chart.self_s", "s"),
    ("chartlang.parse_chart.calls", "count"),
    ("charts.Chart.evaluate_many.self_s", "s"),
    ("charts.Chart.evaluate_many.calls", "count"),
    ("charts.Chart.evaluate_many.points", "count"),
    ("charts.Chart.jacobian_many.self_s", "s"),
    ("charts.Chart.validate.self_s", "s"),
    ("quadrature.QuadratureRule.for_domain.self_s", "s"),
    ("quadrature.QuadratureRule.for_domain.nodes", "count"),
    ("haar.density_numeric_many.self_s", "s"),
    ("haar.density_numeric_many.points", "count"),
    ("haar.normalize.self_s", "s"),
    ("haar.normalize.calls", "count"),
    ("haar.HaarDensity.grid.self_s", "s"),
    ("haar.HaarDensity.grid.calls", "count"),
    ("haar.HaarDensity.grid.hit_ratio", "ratio"),
    ("haar.integrate_tensor.self_s", "s"),
    ("sampling.sample.self_s", "s"),
    ("sampling.sample.rows", "count"),
    ("sampling.invert_cdf.self_s", "s"),
    ("sampling.invert_cdf.calls", "count"),
    ("sampling.invert_cdf.targets", "count"),
    ("tensors.act_batch.self_s", "s"),
    ("tensors.act_batch.entries", "count"),
    ("reynolds.reynolds_continuous.self_s", "s"),
    ("reynolds.reynolds_matrix.self_s", "s"),
    ("reynolds.invariant_rank.self_s", "s"),
    ("reynolds.dim_invariants_quadrature.self_s", "s"),
    ("orbit.moment.self_s", "s"),
    ("orbit.covariance.self_s", "s"),
    ("orbit.mc_moments.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = {}
        self.op = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            for key, count in counters.items():
                try:
                    value = count(result)
                except (TypeError, AttributeError):
                    continue
                self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + value
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every layer function that exists; returns the wrapped names."""
    installed = []
    for name, (module_name, path, counters) in LAYERS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__, counters)))
            elif callable(raw):
                setattr(owner, attr, recorder.wrap(name, raw, counters))
            else:
                continue
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            traced = recorder.wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "haarkit" or mod_name.startswith("haarkit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        installed.append(name)
    return installed


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def merge(into: list, spans: list, op=None) -> None:
    """Append one process's spans, re-basing parent indices; `op` re-tags them."""
    base = len(into)
    for name, start, end, parent, own_op in spans:
        into.append([name, start, end, None if parent is None else parent + base,
                     own_op if op is None else op])


def summarize(spans: list, counts: dict) -> dict:
    """Per-layer self time, call count, counters and grid hit ratio."""
    out = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span[0]}.self_s"] = out.get(f"{span[0]}.self_s", 0.0) + own
        out[f"{span[0]}.calls"] = out.get(f"{span[0]}.calls", 0) + 1
    out.update(counts)
    grid_calls = [i for i, span in enumerate(spans) if span[0] == "haar.HaarDensity.grid"]
    computed = {span[3] for span in spans if span[0] in GRID_WORK and span[3] in grid_calls}
    out["haar.HaarDensity.grid.hit_ratio"] = (
        (len(grid_calls) - len(computed)) / len(grid_calls) if grid_calls else 0.0)
    return out


def per_layer_metrics(summary: dict, import_times: list[float], output_bytes: int,
                      overhead_s: float) -> dict:
    """The reported per-layer metrics, each with its unit."""
    values = dict(summary)
    values["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    values["cli.output_bytes"] = output_bytes
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
