"""Outside-in span tracing of the vceo layers.

The program is not edited: ``patched(tracer)`` replaces the public functions
of each layer, wherever a module has bound them, by wrappers that record a
span (operation id, name, start, end, parent span) and a few counts read from
arguments and return values.  ``scipy.optimize.minimize`` is wrapped too; its
spans are Nelder-Mead runs of the optimizer or simplex polishes of the bound,
told apart by their parent span.  Spans are kept in memory and written out by
``write_jsonl`` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import scipy.optimize

import vceo
import vceo.bound
import vceo.cli
import vceo.equivalence
import vceo.gaussmodel
import vceo.mc
import vceo.scheme

VCEO_MODULES = (
    vceo,
    vceo.cli,
    vceo.bound,
    vceo.scheme,
    vceo.equivalence,
    vceo.gaussmodel,
    vceo.mc,
)
GAUSSMODEL_FUNCTIONS = ("build_joint_cov", "gaussian_mi", "conditional_mi", "conditional_cov")


def _grid_points(arguments: dict, result) -> dict:
    # Nominal scan size of lower_bound: refine + 1 passes over grid^3 points
    # for branch P1 and grid^2 points for branch P2.
    n = max(int(arguments["grid"]), 2)
    return {"grid_points": (max(int(arguments["refine"]), 0) + 1) * (n**3 + n**2)}


def _starts(arguments: dict, result) -> dict:
    opts = arguments["opts"] or vceo.scheme.OptimizeOptions()
    return {"starts": opts.starts}


def _nm_counts(arguments: dict, result) -> dict:
    return {"nfev": int(result.nfev), "nit": int(result.nit)}


def _sample_bytes(arguments: dict, result) -> dict:
    return {"bytes": int(result.data.nbytes)}


# (span name, home module, attribute, patch the home binding too, attrs from the call)
# The covariance-algebra functions are wrapped only where scheme, equivalence
# and mc bound them, so calls inside gaussmodel itself are not split up.
TARGETS = (
    ("cli", vceo.cli, "main", True, None),
    ("bound.lower_bound", vceo.bound, "lower_bound", True, _grid_points),
    ("scheme.optimize", vceo.scheme, "optimize_sum_rate", True, _starts),
    ("equivalence.construct", vceo.equivalence, "construct_matching_scheme", True, None),
    ("mc.sample", vceo.mc, "sample_joint", True, _sample_bytes),
    ("mc.fit", vceo.mc, "empirical_mmse", True, None),
    ("minimize", scipy.optimize, "minimize", True, _nm_counts),
) + tuple(("gaussmodel", vceo.gaussmodel, name, False, None) for name in GAUSSMODEL_FUNCTIONS)


class Tracer:
    """In-memory span recorder.  A span is ``[op, name, start, end, parent, attrs]``
    where ``parent`` is the index of the enclosing span or None."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn, attrs_fn=None):
        signature = inspect.signature(fn) if attrs_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else None, {}]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs_fn:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = attrs_fn(bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation; the spans under it share its id."""
        self.op = op
        index = len(self.spans)
        self.spans.append([op, "op", time.perf_counter(), 0.0, None, {}])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (op, name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": i, "op": op, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps({**record, **attrs}) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers on every binding of the traced functions."""
    saved = []
    try:
        for name, home, attr, include_home, attrs_fn in TARGETS:
            original = getattr(home, attr)
            wrapper = tracer.wrap(name, original, attrs_fn)
            for module in dict.fromkeys((home,) + VCEO_MODULES):
                if module is home and not include_home:
                    continue
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a mean per traced operation, as name -> (value, unit)."""
    duration = [end - start for _, _, start, end, _, _ in spans]
    child_time = defaultdict(float)
    for i, span in enumerate(spans):
        if span[4] is not None:
            child_time[span[4]] += duration[i]
    total = defaultdict(float)
    nm_seen = defaultdict(int)
    for i, (_, name, _, _, parent, attrs) in enumerate(spans):
        parent_name = spans[parent][1] if parent is not None else None
        if name == "minimize":
            if parent_name == "scheme.optimize":
                nm_seen[parent] += 1
                phase = 1 if nm_seen[parent] <= spans[parent][5].get("starts", 0) else 2
                total[f"scheme.phase{phase}.s"] += duration[i]
                total["scheme.nm.runs"] += 1
                total["scheme.nm.s"] += duration[i]
                total["scheme.nm.nfev"] += attrs.get("nfev", 0)
                total["scheme.nm.nit"] += attrs.get("nit", 0)
            elif parent_name == "bound.lower_bound":
                total["bound.polish.s"] += duration[i]
                total["bound.polish.nfev"] += attrs.get("nfev", 0)
                total["bound.polish.nit"] += attrs.get("nit", 0)
            continue
        total[f"{name}.calls"] += 1
        total[f"{name}.s"] += duration[i]
        if name == "cli":
            total["cli.self_s"] += duration[i] - child_time[i]
        elif name == "scheme.optimize":
            total["scheme.self_s"] += duration[i] - child_time[i]
        elif name == "bound.lower_bound":
            total["bound.grid.s"] += duration[i] - child_time[i]
            total["bound.grid.points"] += attrs.get("grid_points", 0)
        elif name == "mc.sample":
            total["mc.sample.bytes"] += attrs.get("bytes", 0)
    nfev = total["scheme.nm.nfev"]
    per_op = lambda key: total[key] / max(n_ops, 1)  # noqa: E731
    return {
        "cli.self_s": (per_op("cli.self_s"), "s"),
        "bound.lower_bound.calls": (per_op("bound.lower_bound.calls"), "count"),
        "bound.lower_bound.s": (per_op("bound.lower_bound.s"), "s"),
        "bound.grid.s": (per_op("bound.grid.s"), "s"),
        "bound.grid.points": (per_op("bound.grid.points"), "count"),
        "bound.polish.s": (per_op("bound.polish.s"), "s"),
        "bound.polish.nfev": (per_op("bound.polish.nfev"), "count"),
        "bound.polish.nit": (per_op("bound.polish.nit"), "count"),
        "scheme.optimize.calls": (per_op("scheme.optimize.calls"), "count"),
        "scheme.optimize.s": (per_op("scheme.optimize.s"), "s"),
        "scheme.phase1.s": (per_op("scheme.phase1.s"), "s"),
        "scheme.phase2.s": (per_op("scheme.phase2.s"), "s"),
        "scheme.nm.runs": (per_op("scheme.nm.runs"), "count"),
        "scheme.nm.nfev": (per_op("scheme.nm.nfev"), "count"),
        "scheme.nm.nit": (per_op("scheme.nm.nit"), "count"),
        "scheme.nm.us_per_eval": (1e6 * total["scheme.nm.s"] / nfev if nfev else 0.0, "us"),
        "scheme.self_s": (per_op("scheme.self_s"), "s"),
        "equivalence.construct.calls": (per_op("equivalence.construct.calls"), "count"),
        "equivalence.construct.s": (per_op("equivalence.construct.s"), "s"),
        "gaussmodel.calls": (per_op("gaussmodel.calls"), "count"),
        "gaussmodel.s": (per_op("gaussmodel.s"), "s"),
        "mc.sample.s": (per_op("mc.sample.s"), "s"),
        "mc.sample.bytes": (per_op("mc.sample.bytes"), "bytes"),
        "mc.fit.calls": (per_op("mc.fit.calls"), "count"),
        "mc.fit.s": (per_op("mc.fit.s"), "s"),
    }
