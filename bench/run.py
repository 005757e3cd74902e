"""Benchmark of switchgp: one workload per run, one JSON result line.

    python3 bench/run.py --workload recognize --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` every other operation runs under span wrappers and the result
carries the per-layer metrics, the spans going to ``bench/out/``. The line
before the result records the machine, library and source versions.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: on a few shared vCPUs a
# thread pool adds scheduling noise to every timing.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 30
SETUP_BUDGET_S = 0.3
P90_MIN_SAMPLES = 40


def _import_program():
    if not (SRC / "switchgp" / "__init__.py").is_file():
        sys.exit(f"bench: no switchgp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import switchgp

    if Path(switchgp.__file__).resolve().parent != SRC / "switchgp":
        sys.exit(f"bench: imported switchgp from {switchgp.__file__}, not {SRC}")


def _blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by package."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for name in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "switchgp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload, seconds: float, tracer):
    """Timed loop: inputs are made untimed, ops are timed one by one."""
    times, failed, attempted = {}, 0, 0
    begin = time.perf_counter()
    i = 0
    while time.perf_counter() - begin < seconds:
        inp = workload.next_input(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception:  # one failed op is counted, the run goes on
            failed += 1
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if out is not None:
            times[i] = dt
            workload.observe(i, inp, out)
        i += 1
    return times, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import numpy as np

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup_times = []
    begin = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or (
        time.perf_counter() - begin < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        workload.setup()
        workload.next_input(0)
        setup_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.warm_up()
    warm_up_s = time.perf_counter() - t0
    setup_s = statistics.median(setup_times) + warm_up_s

    tracer = Tracer(workload.layers) if args.trace else None
    times, attempted, failed = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = workload.check()
    secs = list(times.values())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(secs),
        "setup_repeats": len(setup_times),
        "warm_up_s": warm_up_s,
        **workload.info(),
    }
    if len(secs) >= P90_MIN_SAMPLES:
        info["op_p90_ms"] = 1e3 * float(np.percentile(secs, 90))

    if args.trace:
        traced = [i for i in times if i % 2 == 1]
        plain = [times[i] for i in times if i % 2 == 0]
        if not traced or not plain:
            fails.append("trace: the run needs one traced and one plain operation")
            metrics = {}
        else:
            metrics = workload.layer_metrics(tracer, traced, times)
            base = statistics.median(plain)
            metrics["trace.overhead_pct"] = (
                100.0 * (statistics.median(times[i] for i in traced) - base) / base
            )
        tracer.install(-1)
        try:
            workload.probe()
        finally:
            tracer.uninstall()
        silent = tracer.silent()
        if silent:
            fails.append(f"trace: wrappers never fired: {silent}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        # A layer the workload does not exercise reads 0.
        unknown = set(metrics) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            fails.append(f"trace: metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        total = sum(secs)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(secs) / total if total else 0.0,
            "op_p50_ms": 1e3 * statistics.median(secs) if secs else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()}

    for msg in fails:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({"env": environment(), "info": info}))
    print(
        json.dumps(
            {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
