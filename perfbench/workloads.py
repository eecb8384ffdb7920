"""Workload instances and the per-operation calls and checks of the benchmark.

Three closed-loop workloads, one operation at a time in one process:

* ``certify``: ``vceo verify`` on instances inside the distortion condition.
  It runs the converse bound (grid and simplex polish), the matching
  construction and the warm-started multistart optimizer.
* ``outside_regime``: ``vceo sum-rate`` on instances outside the condition.
  The cold multistart optimizer does all the work and the bound is never
  called, so a change to the bound must leave this workload unchanged.
* ``mc_oracle``: ``vceo.mc_report`` at n = 1e6 on random (model, scheme)
  pairs.  Only the Monte-Carlo layer (sampling versus fitting) does real work.

Instances are chosen by a generator seeded by the benchmark seed and written
to JSON files; each operation reads only its instance file.  The random draws
follow the distributions of the test-suite generators; those of the CLI
workloads come from pools stored in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

import vceo
import vceo.cli
from vceo import DistortionTriple, SchemeParams, SourceModel, condition_holds, full_mmse

WORKLOADS = ("certify", "outside_regime", "mc_oracle")

#: Random instances per run besides the named ones.  The CLI workloads take one
#: from each cost stratum of their stored pool (see ``stratified``).
RANDOM_PER_RUN = {"certify": 12, "outside_regime": 14, "mc_oracle": 8}

MC_SAMPLES = 10**6

#: Fixed before the reference values were stored: relative agreement of a
#: sum-rate result with the value the unchanged optimizer gave.
SUM_RATE_REL_TOL = 1e-6
#: Slack of the weak-duality check against the stored lower bound.
WEAK_DUALITY_REL_TOL = 1e-9
DISTORTION_RTOL = 1e-9
VERIFY_GAP_TOL = 1e-3
VERIFY_IDENTITY_TOL = 1e-9

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Named instances of the project roadmap: (name, (sigma_s2, n1, n2), (d1, d2, d0)).
NAMED_IN_CONDITION = (
    ("canonical", (1.0, 1.0, 1.0), (0.4, 0.4, 0.35)),
    ("p2_loose_central", (1.0, 1.0, 1.0), (0.4, 0.4, 0.39999)),
    ("near_floor", (1.0, 1.0, 1.0), (0.34, 0.34, 0.3399)),
    ("asym_noise_in", (1.0, 0.3, 3.0), (0.225, 0.225, 0.222)),
)
NAMED_OUTSIDE = (
    ("asym_noise_out", (1.0, 0.3, 3.0), (0.5, 0.3, 0.25)),
    ("unit_outside", (1.0, 1.0, 1.0), (0.6, 0.6, 0.4)),
)


# ---------------------------------------------------------------------------
# Random draws


def random_model(rng: np.random.Generator) -> SourceModel:
    return SourceModel(*rng.uniform(0.25, 4.0, 3))


def random_params(rng: np.random.Generator, model: SourceModel) -> SchemeParams:
    """Log-uniform W variances on [0.05, 20] times the noise scale, anticorrelated."""
    scales = np.array([model.sigma_n1_2, model.sigma_n1_2, model.sigma_n2_2, model.sigma_n2_2])
    w = scales * np.exp(rng.uniform(math.log(0.05), math.log(20.0), 4))
    rho = rng.uniform(0.0, 0.95, 2)
    a1 = rho[0] * min(math.sqrt(w[0] * w[1]), model.sigma_n1_2)
    a2 = rho[1] * min(math.sqrt(w[2] * w[3]), model.sigma_n2_2)
    return SchemeParams(w[0], w[1], w[2], w[3], a1, a2)


def random_condition_targets(rng: np.random.Generator, model: SourceModel) -> DistortionTriple | None:
    """Targets inside the distortion condition with feasibility slack, or None."""
    floor = full_mmse(model)
    s2 = model.sigma_s2
    q = max(1.0 / model.sigma_n1_2, 1.0 / model.sigma_n2_2) + 1.0 / s2
    narrow_hi = min(0.98 / q, 0.95 * s2)
    if narrow_hi <= 1.02 * floor:
        return None
    for _ in range(1000):
        d1 = rng.uniform(1.02 * floor, narrow_hi)
        hi2 = narrow_hi if rng.uniform() < 0.5 else 0.95 * s2
        d2 = rng.uniform(1.02 * floor, hi2)
        lhs = 1.0 / d1 + 1.0 / d2 - q
        if lhs <= 0.0:
            continue
        lo, hi = max(1.0 / lhs, 1.02 * floor), 0.98 * min(d1, d2)
        if lo < hi:
            return DistortionTriple(d1, d2, rng.uniform(lo, hi))
    return None


def random_outside_targets(rng: np.random.Generator, model: SourceModel) -> DistortionTriple | None:
    """Feasible targets outside the distortion condition, or None."""
    floor = full_mmse(model)
    s2 = model.sigma_s2
    for _ in range(500):
        d1 = rng.uniform(1.05 * floor, 0.95 * s2)
        d2 = rng.uniform(1.05 * floor, 0.95 * s2)
        lo, hi = 1.02 * floor, 0.98 * min(d1, d2)
        if lo >= hi:
            continue
        targets = DistortionTriple(d1, d2, rng.uniform(lo, hi))
        if not condition_holds(model, targets):
            return targets
    return None


def draw_instances(rng: np.random.Generator, count: int, inside: bool) -> list[dict]:
    """``count`` random instance documents, inside or outside the condition."""
    draw = random_condition_targets if inside else random_outside_targets
    docs = []
    while len(docs) < count:
        model = random_model(rng)
        targets = draw(rng, model)
        if targets is not None:
            docs.append(instance_doc(f"random_{len(docs)}", model, targets))
    return docs


# ---------------------------------------------------------------------------
# Instance documents


def instance_doc(name: str, model: SourceModel, targets: DistortionTriple) -> dict:
    return {"name": name, "model": dataclasses.asdict(model), "targets": dataclasses.asdict(targets)}


def named_docs(entries) -> list[dict]:
    return [
        instance_doc(name, SourceModel(*model), DistortionTriple(*targets))
        for name, model, targets in entries
    ]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def stratified(pool: list[dict], count: int, rng: np.random.Generator) -> list[dict]:
    """One entry from each of ``count`` strata of ``pool`` cut by stored cost.

    The optimizer's cost varies about threefold across a pool.  Sorting the
    pool by the objective evaluations stored with each entry (``nm_nfev``)
    and taking one entry per stratum gives every run the same spread of
    costs, so the seed changes the instances but hardly the run's median.
    """
    ordered = sorted(pool, key=lambda r: r["nm_nfev"])
    return [ordered[rng.choice(stratum)] for stratum in np.array_split(np.arange(len(ordered)), count)]


def generate(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the run's instance files in operation order and return their paths.

    The same (workload, seed) always gives the same files.  The CLI workloads
    draw their random instances from the stored reference pools by cost
    stratum (see ``stratified``); ``outside_regime`` also checks each result
    against the values stored for its instance.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    count = RANDOM_PER_RUN[workload]
    if workload in ("certify", "outside_regime"):
        named = NAMED_IN_CONDITION if workload == "certify" else NAMED_OUTSIDE
        pool = [r for r in load_reference()[workload] if r["name"].startswith("random_")]
        chosen = named_docs(named) + stratified(pool, count, rng)
        docs = [{key: r[key] for key in ("name", "model", "targets")} for r in chosen]
    else:
        docs = []
        for i in range(count):
            model = random_model(rng)
            params = random_params(rng, model)
            docs.append(
                {"name": f"random_{i}", "model": dataclasses.asdict(model), "params": dataclasses.asdict(params)}
            )
    order = rng.permutation(len(docs))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, i in enumerate(order):
        path = out_dir / f"{k:02d}-{docs[i]['name']}.json"
        path.write_text(json.dumps(docs[i], indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def cli_instance_text(doc: dict) -> str:
    """The instance file as the CLI reads it: model and targets only."""
    return json.dumps({"model": doc["model"], "targets": doc["targets"]})


# ---------------------------------------------------------------------------
# Operations: each reads one instance file, calls the program and checks the output.


class Operation:
    """One workload's call into the program plus its output check.

    ``run(path, index)`` returns None when the output is correct and a short
    reason otherwise.  The CLI workloads hand the CLI a copy of the instance
    reduced to the fields of its schema.
    """

    def __init__(self, workload: str, work_dir: Path):
        self.workload = workload
        self.cli_file = work_dir / "cli-instance.json"
        self.reference = {}
        if workload == "outside_regime":
            self.reference = {r["name"]: r for r in load_reference()["outside_regime"]}

    def run(self, path: Path, index: int) -> str | None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if self.workload == "mc_oracle":
            return self._mc(doc, index)
        self.cli_file.write_text(cli_instance_text(doc), encoding="utf-8")
        command = "verify" if self.workload == "certify" else "sum-rate"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vceo.cli.main([command, "--instance", str(self.cli_file), "--output", "json"])
        if code != 0:
            return f"{command} exited {code}: {err.getvalue().strip()[:200]}"
        result = json.loads(out.getvalue())
        if self.workload == "certify":
            return check_verify(result)
        return check_sum_rate(result, doc, self.reference[doc["name"]])

    @staticmethod
    def _mc(doc: dict, index: int) -> str | None:
        model = SourceModel(**doc["model"])
        params = SchemeParams(**doc["params"])
        report = vceo.mc_report(model, params, n=MC_SAMPLES, seed=index)
        if not report.passed(5.0):
            worst = max(report.rows, key=lambda row: row.z_score)
            return f"mc_report failed at 5 sigma: {worst.name} z={worst.z_score:.2f}"
        return None


def check_verify(result: dict) -> str | None:
    """A ``verify --output json`` document certifies equality; other keys are ignored."""
    if result.get("status") != "PASS":
        return f"verify status {result.get('status')!r}"
    if not result["relative_gap"] <= VERIFY_GAP_TOL:
        return f"relative_gap {result['relative_gap']!r} > {VERIFY_GAP_TOL}"
    if not result["identity_diff"] <= VERIFY_IDENTITY_TOL:
        return f"identity_diff {result['identity_diff']!r} > {VERIFY_IDENTITY_TOL}"
    return None


def check_sum_rate(result: dict, doc: dict, reference: dict) -> str | None:
    """A ``sum-rate --output json`` document meets the targets, respects weak
    duality against the stored bound and matches the stored rate."""
    achieved = result["achieved_distortions"]
    for key, target in (("delta_1", "d1"), ("delta_2", "d2"), ("delta_0", "d0")):
        if not achieved[key] <= doc["targets"][target] * (1.0 + DISTORTION_RTOL):
            return f"{key} = {achieved[key]!r} exceeds target {target}"
    rate, bound = result["sum_rate"], reference["lower_bound"]
    if not rate >= bound - WEAK_DUALITY_REL_TOL * max(1.0, abs(bound)):
        return f"sum_rate {rate!r} below stored lower bound {bound!r}"
    expected = reference["sum_rate"]
    if not abs(rate - expected) <= SUM_RATE_REL_TOL * max(1.0, abs(expected)):
        return f"sum_rate {rate!r} differs from stored {expected!r}"
    return None
