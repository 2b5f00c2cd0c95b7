"""Layered benchmark of nmshallow: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy. Each run executes the workload
back to back, single-threaded, for about ``--seconds`` (at least three times), and
gates every execution on the acceptance bounds (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s`` -- median seconds of one gated execution, tracing off;
* ``setup_s`` -- median, over several fresh interpreters, of the time to
  import the package and build the workload's inputs;
* ``peak_rss_mb`` -- peak resident memory of this process.

``--trace 1`` alternates untraced and traced executions. The traced ones
record spans around every layer's entry points (see ``spans.py``), check that
exactly the expected layers were entered, write the spans to
``.perfbench_out/spans-<workload>.csv``, and report the per-layer metrics
(medians over the traced executions) plus the tracing overhead.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``. BLAS/OpenMP
thread pools are pinned to one thread before numpy loads.
"""
from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
# A sweep execution takes about half of run_seconds; the floor keeps its
# figure a median of several executions, not one sample, on a noisy host.
MIN_EXECUTIONS = 3
# glibc sysconf names for the data cache sizes (Linux only).
CACHE_SYSCONF = {"l1d": 188, "l2": 191, "l3": 194}


class BenchError(Exception):
    """The benchmark cannot run or its harness checks failed."""


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def _import_package() -> None:
    """Put the checkout's src/ first on the path and check that it is used."""
    src = ROOT / "src"
    if not (src / "nmshallow" / "__init__.py").is_file():
        raise BenchError("src/nmshallow not found: run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import nmshallow

    if src.resolve() not in Path(nmshallow.__file__).resolve().parents:
        raise BenchError(f"imported nmshallow from {nmshallow.__file__}, not from {src}")


def _setup_probe(workload: str, seed: int, size: str) -> float:
    """Import the package and build the inputs; seconds from a fresh interpreter."""
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workdir = OUT / f"{workload}-{os.getppid()}"
    workloads.WORKLOADS[workload].setup(ROOT, seed, workdir, size)
    return time.perf_counter() - t0


def _measure_setup(workload: str, seed: int, size: str, reps: int) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--size", size, "--setup-probe",
    ]
    times = []
    for _ in range(reps):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for name, key in CACHE_SYSCONF.items():
        try:
            caches[name] = os.sysconf(key)
        except (ValueError, OSError):
            caches[name] = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def closed_loop(run_one, seconds: float, min_calls: int) -> None:
    """Call `run_one()` `min_calls` times, then again while one more call fits in `seconds`."""
    start = time.perf_counter()
    calls = 0
    while True:
        t0 = time.perf_counter()
        run_one()
        calls += 1
        last = time.perf_counter() - t0
        if calls >= min_calls and time.perf_counter() - start + last > seconds:
            return


def measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> tuple[dict, list[str]]:
    """Run one workload; return (result values by metric name, report lines)."""
    import workloads

    w = workloads.WORKLOADS[workload]
    workdir = OUT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    try:
        setup_times = _measure_setup(workload, seed, size, SETUP_REPS) if not trace else []
        inputs = w.setup(ROOT, seed, workdir, size)
        tally = {"attempted": 0, "failed": 0}
        plain: list[float] = []
        traced: list[dict] = []
        infos: set[str] = set()
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()

        def execute(with_trace: bool) -> None:
            tally["attempted"] += 1
            during = contextlib.nullcontext
            if with_trace:
                tracer.run_id = f"{workload}#{len(traced)}"
                tracer.counts = {}
                first = len(tracer.spans)
                during = functools.partial(tracer.installed, workloads, "invoke_cli")
            elapsed, failures, info = workloads.run_once(w, inputs, during)
            if info:
                infos.add(json.dumps(info, sort_keys=True))
            if failures:
                tally["failed"] += 1
                lines.append(f"FAILED execution {tally['attempted']}: " + "; ".join(failures))
                return
            if not with_trace:
                plain.append(elapsed)
                return
            summary = tracer.summary(first, len(tracer.spans))
            problems = spans.check_expectations(workload, summary)
            if problems:
                raise BenchError("span check failed:\n  " + "\n  ".join(problems))
            values = spans.layer_metrics(summary, tracer.counts)
            values["_wall_s"] = elapsed
            traced.append(values)

        if trace:
            def pair() -> None:
                execute(False)
                execute(True)

            closed_loop(pair, seconds, min_calls=1)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}.csv"
            tracer.write_csv(spans_path)
            lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            closed_loop(lambda: execute(False), seconds, min_calls=MIN_EXECUTIONS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.extend(f"info: {info}" for info in sorted(infos))

    values: dict = dict(tally)
    if trace:
        # median_low keeps counts whole: they repeat exactly between executions.
        for key in traced[0] if traced else []:
            values[key] = statistics.median_low(v[key] for v in traced)
        if traced and plain:
            values["tracing.overhead_pct"] = 100.0 * (
                statistics.median(v["_wall_s"] for v in traced) / statistics.median(plain) - 1.0
            )
        values.pop("_wall_s", None)
    else:
        values["wall_s"] = statistics.median(plain) if plain else None
        values["setup_s"] = statistics.median(setup_times) if setup_times else None
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines.append(
            f"samples: {len(plain)} gated executions "
            f"({', '.join(f'{t:.4f}' for t in plain)} s); "
            f"set-up {', '.join(f'{t:.4f}' for t in setup_times)} s"
        )
    return values, lines


def result(spec: dict, values: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and values["failed"] == 0:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    complete = all(v["value"] is not None for v in metrics.values())
    return {
        "correct": values["failed"] == 0 and complete,
        "attempted": values["attempted"],
        "failed": values["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny grids for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = _load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
        if args.setup_probe:
            print(repr(_setup_probe(args.workload, args.seed, args.size)))
            return 0
        _import_package()
        trace = bool(args.trace)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        values, lines = measure(args.workload, args.seed, seconds, trace, args.size)
        out = result(spec, values, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"closed loop, 1 client, single-threaded")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"attempted: {out['attempted']}  failed: {out['failed']}")
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "env": env, **out}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
