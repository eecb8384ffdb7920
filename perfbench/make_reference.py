#!/usr/bin/env python3
"""Regenerate ``reference.json``: the instance pools of the CLI workloads and
their stored values.

``outside_regime``: for the named outside-condition instances and
``POOL_SIZE["outside_regime"]`` random ones, it stores the ``vceo sum-rate``
result, the converse ``lower_bound`` value and the optimizer's objective
evaluations (``nm_nfev``).

``certify``: for ``POOL_SIZE["certify"]`` random in-condition instances, it
checks the ``vceo verify`` result as the benchmark does and stores the
optimizer's objective evaluations.

Both random pools are drawn with a fixed pool seed.  The benchmark cuts each
pool into strata by ``nm_nfev`` and checks every ``outside_regime`` result
against the stored values, so rerun this only on a commit whose numbers are
trusted:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import vceo  # noqa: E402
import vceo.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20261017
POOL_SIZE = {"outside_regime": 48, "certify": 28}
COMMAND = {"outside_regime": "sum-rate", "certify": "verify"}


def run_cli(workload: str, doc: dict, cli_file: Path) -> tuple[dict, int, float]:
    """The CLI's JSON result, the optimizer's evaluations and the wall time."""
    cli_file.write_text(workloads.cli_instance_text(doc), encoding="utf-8")
    out = io.StringIO()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), tracing.patched(tracer), tracer.operation(0):
        code = vceo.cli.main([COMMAND[workload], "--instance", str(cli_file), "--output", "json"])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{COMMAND[workload]} failed on {doc['name']} with exit code {code}")
    nfev = int(tracing.layer_metrics(tracer.spans, 1)["scheme.nm.nfev"][0])
    return json.loads(out.getvalue()), nfev, elapsed


def pool(workload: str, docs: list[dict], cli_file: Path) -> list[dict]:
    entries = []
    for doc in docs:
        result, nfev, elapsed = run_cli(workload, doc, cli_file)
        entry = {**doc, "nm_nfev": nfev}
        if workload == "certify":
            error = workloads.check_verify(result)
            if error is not None:
                raise SystemExit(f"verify check failed on {doc['name']}: {error}")
            note = f"relative_gap {result['relative_gap']:.3g}"
        else:
            model = vceo.SourceModel(**doc["model"])
            targets = vceo.DistortionTriple(**doc["targets"])
            entry["sum_rate"] = result["sum_rate"]
            entry["lower_bound"] = vceo.lower_bound(model, targets).value
            note = f"sum_rate {entry['sum_rate']:.12g} lower_bound {entry['lower_bound']:.12g}"
        entries.append(entry)
        print(f"{workload} {doc['name']}: {note} nfev {nfev} ({elapsed:.2f} s)", flush=True)
    return entries


def main() -> int:
    work = ROOT / "perfbench" / "out"
    work.mkdir(parents=True, exist_ok=True)
    cli_file = work / "reference-instance.json"
    document = {"pool_seed": POOL_SEED}
    rng = np.random.default_rng(POOL_SEED)
    outside = workloads.named_docs(workloads.NAMED_OUTSIDE)
    outside += workloads.draw_instances(rng, POOL_SIZE["outside_regime"], inside=False)
    document["outside_regime"] = pool("outside_regime", outside, cli_file)
    inside = workloads.draw_instances(rng, POOL_SIZE["certify"], inside=True)
    document["certify"] = pool("certify", inside, cli_file)
    workloads.REFERENCE_FILE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
