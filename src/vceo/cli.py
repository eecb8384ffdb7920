"""Command-line front end.

Five commands over a JSON instance file:

    vceo sum-rate    --instance inst.json      optimized achievable sum rate
    vceo lower-bound --instance inst.json      converse lower bound
    vceo verify      --instance inst.json      equality certificate
    vceo sweep       --instance inst.json --var d0 --start 0.3 --stop 0.39 --steps 16
    vceo mc-check    --instance inst.json --n 1000000

Instance schema (all numbers are decimal doubles)::

    {
      "model":   {"sigma_s2": 1.0, "sigma_n1_2": 1.0, "sigma_n2_2": 1.0},
      "targets": {"d1": 0.4, "d2": 0.4, "d0": 0.35},
      "options": {"tol": 1e-7, "starts": 16, "grid": 64, "seed": 0, "unit": "nats"}
    }

The ``options`` section is optional and CLI flags override it.  Each option
has one range, in the file and as a flag: ``tol`` finite and >= 0, ``starts``
an integer >= 1, ``grid`` an integer >= 3, ``seed`` an integer in
[0, 2**128) for every command, ``unit`` "nats" or "bits".  Booleans are not
numbers (the library types also take numpy scalars).  All internal
values are nats; ``--bits`` only converts at render time.  Exit codes:
0 ok, 1 parse error, 2 infeasible targets, 3 verification failure,
4 outside the distortion condition.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from . import bound as _bound
from . import equivalence as _equivalence
from . import mc as _mc
from . import scheme as _scheme
from .errors import (
    InfeasibleTargetsError,
    InstanceParseError,
    InvalidParamsError,
    VceoError,
    require_int,
)
from .gaussmodel import SourceModel
from .scheme import DistortionTriple, OptimizeOptions, OptimizeResult

__all__ = ["InstanceSpec", "Options", "parse_instance", "serialize_instance", "main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAIL = 3
EXIT_OUTSIDE_CONDITION = 4

SWEEP_COLUMNS = (
    "swept_var",
    "swept_value",
    "achievable_nats",
    "lower_bound_nats",
    "gap_nats",
    "condition_holds",
)
SWEEP_VARS = ("d0", "d1", "d2", "sigma_s2", "sigma_n1_2", "sigma_n2_2")

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Options:
    """Solver options of an instance file, overridden by flags; ``starts``,
    ``tol`` and ``seed`` are checked by ``OptimizeOptions``."""

    tol: float = 1e-7
    starts: int = 16
    grid: int = 64
    seed: int = 0
    unit: str = "nats"

    def __post_init__(self) -> None:
        solver = OptimizeOptions(self.starts, self.tol, self.seed)
        for name in ("starts", "tol", "seed"):
            object.__setattr__(self, name, getattr(solver, name))
        object.__setattr__(self, "grid", require_int("grid", self.grid, _bound.MIN_GRID))
        if self.unit not in ("nats", "bits"):
            raise InvalidParamsError(f"unit must be 'nats' or 'bits', got {self.unit!r}")


@dataclass(frozen=True)
class InstanceSpec:
    model: SourceModel
    targets: DistortionTriple
    options: Options = Options()


#: The three sections of an instance file; "options" may be left out.
SECTIONS = {"model": SourceModel, "targets": DistortionTriple, "options": Options}


def parse_instance(text: str) -> InstanceSpec:
    """Parse and validate an instance document; diagnostics carry line/field.
    Each section takes the fields, defaults and checks of its dataclass."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise InstanceParseError("top level must be an object")
    unknown = set(doc) - SECTIONS.keys()
    if unknown:
        raise InstanceParseError(f"unknown top-level field(s): {sorted(unknown)}")
    parts = {}
    for section, cls in SECTIONS.items():
        fields = dataclasses.fields(cls)
        required = [f.name for f in fields if f.default is dataclasses.MISSING]
        body = doc.get(section, None if required else {})
        if not isinstance(body, dict):
            raise InstanceParseError(f"missing or non-object section {section!r}")
        unknown = set(body) - {f.name for f in fields}
        if unknown:
            raise InstanceParseError(f"unknown field(s) in {section}: {sorted(unknown)}")
        for key in required:
            if key not in body:
                raise InstanceParseError(f"missing field {section}.{key}")
        try:
            parts[section] = cls(**body)
        except InvalidParamsError as e:
            raise InstanceParseError(f"{section}.{e}") from e
    return InstanceSpec(**parts)


def serialize_instance(spec: InstanceSpec) -> str:
    """Canonical form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True) + "\n"


def load_instance(path: str) -> InstanceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InstanceParseError(f"cannot read instance file {path!r}: {e}") from e
    return parse_instance(text)


# ---------------------------------------------------------------------------
# Rendering helpers


def _rate(value: float, bits: bool) -> float:
    return value / LN2 if bits else value


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(doc), indent=2, sort_keys=True), file=out)
        return
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{key}:", file=out)
            for k, v in value.items():
                print(f"  {k} = {_fmt_value(v)}", file=out)
        else:
            print(f"{key} = {_fmt_value(value)}", file=out)


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt_value(x) for x in v) + ")"
    return str(v)


def _achievable(
    model: SourceModel,
    targets: DistortionTriple,
    opts: Options,
    lb: _bound.LowerBoundResult | None = None,
    report: _equivalence.EquivalenceReport | None = None,
) -> OptimizeResult:
    """The achievable scheme of ``sum-rate``, ``sweep``, ``mc-check`` and ``verify``.

    Inside the distortion condition it is the matching construction ``report``,
    built at the argmin of ``lb`` (a bound at ``opts.grid`` when no bound is
    given).  The construction is returned as is when it meets the targets,
    since the bound says no scheme does better, and seeds the optimizer
    otherwise.  If the bound or the construction fails, and outside the
    condition, the optimizer runs its multistart unseeded.
    """
    warm_start = None
    if _bound.condition_holds(model, targets):
        try:
            if report is None:
                if lb is None:
                    lb = _bound.lower_bound(model, targets, grid=opts.grid)
                report = _equivalence.construct_matching_scheme(model, targets, lb.argmin)
            if _scheme._is_feasible(model, targets, report.params):
                breakdown = _scheme.sum_rate(model, report.params)
                return OptimizeResult(report.params, breakdown, report.distortions)
            warm_start = report.params
        except VceoError:
            pass
    seeded = OptimizeOptions(opts.starts, opts.tol, opts.seed, warm_start)
    return _scheme.optimize_sum_rate(model, targets, seeded)


# ---------------------------------------------------------------------------
# Commands


def cmd_sum_rate(spec: InstanceSpec, opts: Options, fmt: str, out) -> int:
    bits = opts.unit == "bits"
    result = _achievable(spec.model, spec.targets, opts)
    doc = {
        "command": "sum-rate",
        "unit": opts.unit,
        "sum_rate": _rate(result.breakdown.sum_rate, bits),
        "term_mi_joint": _rate(result.breakdown.term_mi_joint, bits),
        "term_mi_cross": _rate(result.breakdown.term_mi_cross, bits),
        "params": dataclasses.asdict(result.params),
        "achieved_distortions": {
            "delta_1": result.distortions[0],
            "delta_2": result.distortions[1],
            "delta_0": result.distortions[2],
        },
    }
    _emit(doc, fmt, out)
    return EXIT_OK


def cmd_lower_bound(spec: InstanceSpec, opts: Options, fmt: str, out) -> int:
    bits = opts.unit == "bits"
    cond = _bound.condition_holds(spec.model, spec.targets)
    result = _bound.lower_bound(spec.model, spec.targets, grid=opts.grid)
    doc = {
        "command": "lower-bound",
        "unit": opts.unit,
        "lower_bound": _rate(result.value, bits),
        "branch": result.branch.value,
        "argmin": dataclasses.asdict(result.argmin),
        "sigma_z": {"sigma_z1_2": result.sigma_z[0], "sigma_z2_2": result.sigma_z[1]},
        "condition_holds": cond,
    }
    if not cond:
        doc["note"] = "distortion condition not satisfied; equality with the achievable rate is not guaranteed"
    _emit(doc, fmt, out)
    return EXIT_OK


def cmd_verify(spec: InstanceSpec, opts: Options, fmt: str, out, identity_tol: float) -> int:
    bits = opts.unit == "bits"
    if not _bound.condition_holds(spec.model, spec.targets):
        _emit(
            {
                "command": "verify",
                "status": "SKIPPED",
                "reason": "outside the distortion condition; no certificate attempted",
            },
            fmt,
            out,
        )
        return EXIT_OUTSIDE_CONDITION
    lb = _bound.lower_bound(spec.model, spec.targets, grid=opts.grid)
    report = _equivalence.construct_matching_scheme(spec.model, spec.targets, lb.argmin)
    ach = _achievable(spec.model, spec.targets, opts, lb, report)
    rel_gap = abs(ach.breakdown.sum_rate - lb.value) / max(lb.value, 1e-300)
    identity_ok = report.diff <= identity_tol
    equality_ok = rel_gap <= 1e-3
    status = "PASS" if (identity_ok and equality_ok) else "FAIL"
    doc = {
        "command": "verify",
        "status": status,
        "unit": opts.unit,
        "achievable": _rate(ach.breakdown.sum_rate, bits),
        "lower_bound": _rate(lb.value, bits),
        "relative_gap": rel_gap,
        "equality_tol": 1e-3,
        "identity_lhs": _rate(report.lhs, bits),
        "identity_rhs": _rate(report.rhs, bits),
        "identity_diff": _rate(report.diff, bits),
        "identity_tol": _rate(identity_tol, bits),
        "cases": list(report.cases),
        "constructed_sigma_z": list(report.sigma_z),
        "conditional_mi": list(report.cond_mi),
        "branch": lb.branch.value,
    }
    _emit(doc, fmt, out)
    return EXIT_OK if status == "PASS" else EXIT_VERIFY_FAIL


def cmd_sweep(
    spec: InstanceSpec,
    opts: Options,
    out,
    var: str,
    start: float,
    stop: float,
    steps: int,
) -> int:
    if var not in SWEEP_VARS:
        raise InstanceParseError(f"unknown sweep variable {var!r}; choose from {SWEEP_VARS}")
    print(",".join(SWEEP_COLUMNS), file=out)
    for i in range(steps):
        value = start if steps == 1 else start + (stop - start) * i / (steps - 1)
        fields = {**dataclasses.asdict(spec.model), **dataclasses.asdict(spec.targets), var: value}
        cond = False  # a row that forms no valid instance is outside the condition
        ach = lb = gap = math.nan
        try:
            model = SourceModel(fields["sigma_s2"], fields["sigma_n1_2"], fields["sigma_n2_2"])
            targets = DistortionTriple(fields["d1"], fields["d2"], fields["d0"])
            _scheme.require_valid_targets(model, targets)
            cond = _bound.condition_holds(model, targets)
            lb_res = _bound.lower_bound(model, targets, grid=opts.grid)
            ach_res = _achievable(model, targets, opts, lb_res)
            ach, lb = ach_res.breakdown.sum_rate, lb_res.value
            gap = ach - lb
        except VceoError:
            pass
        print(
            f"{var},{value:.12g},{ach:.12g},{lb:.12g},{gap:.12g},{str(cond).lower()}",
            file=out,
        )
    return EXIT_OK


def cmd_mc_check(spec: InstanceSpec, opts: Options, fmt: str, out, n: int) -> int:
    result = _achievable(spec.model, spec.targets, opts)
    report = _mc.mc_report(spec.model, result.params, n=n, seed=opts.seed)
    doc: dict[str, Any] = {
        "command": "mc-check",
        "n_samples": report.n_samples,
        "seed": report.seed,
        "status": "PASS" if report.passed() else "FAIL",
    }
    for row in report.rows:
        doc[row.name] = {
            "analytic": row.analytic,
            "empirical": row.empirical,
            "stderr": row.stderr,
            "z_score": row.z_score,
            "pass": row.passed(),
        }
    _emit(doc, fmt, out)
    return EXIT_OK if report.passed() else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vceo",
        description="Sum rate, converse bound, and optimality certificates for the "
        "Gaussian vacationing-CEO problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--instance", required=True, help="path to the JSON instance file")
        tol_help = "optimizer tolerance; for verify, the identity tolerance: 1e-9 unless set here"
        p.add_argument("--tol", type=float, default=None, help=tol_help)
        p.add_argument("--starts", type=int, default=None, help="multistart count")
        p.add_argument("--grid", type=int, default=None, help="bound's starting-scan points per axis")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--bits", action="store_true", help="render rates in bits")
        p.add_argument(
            "--output",
            choices=("text", "json", "csv"),
            default=None,
            help="output format (csv applies to sweep only)",
        )

    for name in ("sum-rate", "lower-bound", "verify", "mc-check"):
        common(sub.add_parser(name))
    sweep = sub.add_parser("sweep")
    common(sweep)
    sweep.add_argument("--var", required=True, choices=SWEEP_VARS)
    sweep.add_argument("--start", required=True, type=float)
    sweep.add_argument("--stop", required=True, type=float)
    sweep.add_argument("--steps", required=True, type=int)
    sub.choices["mc-check"].add_argument(
        "--n", type=int, default=10**6, help="Monte-Carlo sample count"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    flags: dict[str, Any] = {
        key: getattr(args, key)
        for key in ("tol", "starts", "grid", "seed")
        if getattr(args, key) is not None
    }
    if args.bits:
        flags["unit"] = "bits"
    try:  # the flags alone, before any work runs
        Options(**flags)
        if args.command == "mc-check":
            require_int("n", args.n, _mc.MIN_SAMPLES)
        if args.command == "sweep":
            require_int("steps", args.steps, 1)
    except InvalidParamsError as e:
        print(f"error: --{e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        spec = load_instance(args.instance)
    except InstanceParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    opts = dataclasses.replace(spec.options, **flags)
    fmt = args.output or ("csv" if args.command == "sweep" else "text")
    if fmt == "csv" and args.command != "sweep":
        print("error: csv output is only available for sweep", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.command == "sum-rate":
            return cmd_sum_rate(spec, opts, fmt, out)
        if args.command == "lower-bound":
            return cmd_lower_bound(spec, opts, fmt, out)
        if args.command == "verify":
            identity_tol = args.tol if args.tol is not None else 1e-9
            return cmd_verify(spec, opts, fmt, out, identity_tol)
        if args.command == "sweep":
            return cmd_sweep(spec, opts, out, args.var, args.start, args.stop, args.steps)
        if args.command == "mc-check":
            return cmd_mc_check(spec, opts, fmt, out, args.n)
        raise AssertionError(f"unhandled command {args.command!r}")
    except InfeasibleTargetsError as e:
        print(f"error: infeasible targets: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvalidParamsError as e:
        print(f"error: invalid instance: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InstanceParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
