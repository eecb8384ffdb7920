#!/usr/bin/env python3
"""Benchmark of the vceo package: three closed-loop workloads, end-to-end
metrics from an untraced run and per-layer metrics from a traced one.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Workloads are ``certify``, ``outside_regime`` and ``mc_oracle`` (see
``workloads.py``); ``all`` runs each in its own process, one after another.
The program under test is the ``vceo`` package under ``src/``.  Every
operation's output is checked.  Metrics are printed one per line with their
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the line before it
holds provenance and details.  See README.md for the metric glossary.
"""

import os

# One BLAS thread: each workload is one closed-loop client, and extra BLAS
# threads on a small shared machine add noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fresh processes timed per run; setup_s is their median.
SETUP_REPEATS = 5
#: Nominal wall time of one pass over a workload's instances on a 2-core
#: machine; a run makes round(--seconds / PASS_SECONDS) passes, at least one.
PASS_SECONDS = {"certify": 34, "outside_regime": 36, "mc_oracle": 15}
#: Operations beyond the reported tail percentile.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


def parse_args(workloads: tuple[str, ...], argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation, one setup probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vceo").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement


def measure_setup(args: argparse.Namespace, repeats: int) -> list[float]:
    """Wall time from starting a fresh interpreter to its "ready" line: the
    imports and the instance generation a command-line user pays per call."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                times.append(time.perf_counter() - start)
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, output {line!r})")
    return times


def run_op(op, path: Path, index: int) -> tuple[float, str | None]:
    """Time one operation; any exception is recorded as a failed operation."""
    start = time.perf_counter()
    try:
        error = op.run(path, index)
    except Exception as exc:  # noqa: BLE001 - the loop must go on and count the failure
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, operations beyond) of the highest percentile with
    at least TAIL_BEYOND operations beyond it; the maximum when there are too
    few operations."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_BEYOND


def closed_loop(paths: list[Path], passes: int, step) -> float:
    """Call ``step(path, index)`` on every instance, ``passes`` times over the
    list, one call after another; returns the elapsed wall time.  Whole passes
    give every instance the same weight in every run, and a fixed count keeps
    the tail percentile the same from run to run."""
    start = time.perf_counter()
    for index, path in enumerate(paths * passes):
        step(path, index)
    return time.perf_counter() - start


def passes_for(args: argparse.Namespace, runs_per_instance: int = 1) -> int:
    """Whole passes that fill --seconds; smoke mode makes one."""
    if args.smoke:
        return 1
    return max(1, round(args.seconds / (PASS_SECONDS[args.workload] * runs_per_instance)))


def timed_run(args, paths: list[Path], op) -> tuple[dict, dict, list]:
    setup = measure_setup(args, 1 if args.smoke else SETUP_REPEATS)
    records = []

    def step(path: Path, index: int) -> None:
        records.append((path.stem, *run_op(op, path, index)))

    elapsed = closed_loop(paths, passes_for(args), step)
    latencies = [latency for _, latency, _ in records]
    tail_value, tail_pct, beyond = tail(latencies)
    failed = sum(error is not None for _, _, error in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_per_s": (len(records) / elapsed, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "error_rate": {"value": failed / len(records), "unit": "fraction"},
        "latency_tail": {"percentile": tail_pct, "operations": len(records), "beyond": beyond},
        "setup_samples_s": setup,
        "elapsed_s": elapsed,
    }
    return metrics, details, records


def traced_run(args, paths: list[Path], op, run_dir: Path) -> tuple[dict, dict, list]:
    """Each operation runs twice, untraced and traced, in alternating order;
    per-layer metrics come from the traced runs and the overhead from the pairs."""
    import tracing

    tracer = tracing.Tracer()
    records = []
    seconds = {False: 0.0, True: 0.0}

    def step(path: Path, index: int) -> None:
        for traced in (index % 2 == 1, index % 2 == 0):
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracing.patched(tracer))
                    stack.enter_context(tracer.operation(index))
                latency, error = run_op(op, path, index)
            seconds[traced] += latency
            records.append((path.stem, latency, error))

    closed_loop(paths, passes_for(args, runs_per_instance=2), step)
    tracer.write_jsonl(run_dir / "spans.jsonl")
    pairs = len(records) // 2
    metrics = tracing.layer_metrics(tracer.spans, pairs)
    metrics["trace.overhead_frac"] = (seconds[True] / seconds[False] - 1.0, "fraction")
    details = {"traced_operations": pairs, "spans": len(tracer.spans)}
    return metrics, details, records


def run_all(args: argparse.Namespace, workloads) -> int:
    """Each workload in its own process, one after another; metrics are prefixed."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=CHILD_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    if not (SRC / "vceo" / "__init__.py").is_file():
        print(f"error: the vceo package is missing: {SRC / 'vceo'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(workloads.WORKLOADS, argv)
    if args.workload == "all":
        return run_all(args, workloads)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe:
        workloads.generate(args.workload, args.seed, run_dir / "probe")
        print("ready", flush=True)
        return 0
    paths = workloads.generate(args.workload, args.seed, run_dir / "instances")
    if args.smoke:
        paths = paths[:1]
    op = workloads.Operation(args.workload, run_dir)
    if args.trace:
        metrics, details, records = traced_run(args, paths, op, run_dir)
    else:
        metrics, details, records = timed_run(args, paths, op)
    failures = [(name, error) for name, _, error in records if error is not None]
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':28s} {details['error_rate']['value']:.6g} fraction")
    per_instance: dict[str, list[float]] = {}
    for name, latency, _ in records:
        per_instance.setdefault(name, []).append(latency)
    print(json.dumps({
        "provenance": provenance(args.workload, args.seed),
        **details,
        "latencies_s": per_instance,
        "failures": failures,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
