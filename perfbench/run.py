"""Benchmark entry point: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; semaffine is imported from its ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is an
``{"info": ...}`` object with the environment, gate results and sample
counts. ``--trace 1`` measures the workload untraced and then traced for
half the time each, reports the per-layer metrics from the traced half and
the tracing overhead between the two, and writes the spans to
``perfbench/out/``.
"""

import os

# BLAS threads are pinned before numpy is first imported: with two threads on
# a two-core machine, identical training runs differed by more than 2x.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("train-default", "eval-dense", "ingest", "gradcheck")


def use_checkout_sources() -> None:
    """Put this checkout's src/ first on the path; fail if it is missing."""
    package = SRC / "semaffine"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no semaffine sources at {package}")
    sys.path.insert(0, str(SRC))
    import semaffine

    if Path(semaffine.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported semaffine from {semaffine.__file__}, not {package}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            reference: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, info object)."""
    # both import semaffine, so they wait for use_checkout_sources()
    import spans
    import workloads as W

    sizes = W.SMOKE if smoke else W.FULL
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    fn = W.WORKLOADS[workload]
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if trace:
            untraced = fn(seed, seconds / 2, sizes, spans.OFF, workdir)
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                outcome = fn(seed, seconds / 2, sizes, tracer, workdir)
            metrics = W.layer_metrics(tracer, untraced, outcome)
            outcome.attempted += untraced.attempted
            outcome.failed += untraced.failed
            for gate, failures in untraced.gates.items():
                outcome.gates.setdefault(gate, []).extend(failures)
            trace_path = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
            tracer.write(trace_path)
        else:
            outcome = fn(seed, seconds, sizes, spans.OFF, workdir)
            metrics = {"setup_s": (outcome.setup_s, "s"), "op_ms": (outcome.op_ms, "ms")}
        W.canary(workload, reference, outcome, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": outcome.failed == 0 and not any(outcome.gates.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "elapsed_s": time.perf_counter() - started, "env": environment(),
        "gates": {gate: ("pass" if not failures else failures) for gate, failures in outcome.gates.items()},
        **outcome.info,
    }
    if trace:
        info["trace_file"] = str(trace_path.relative_to(HERE.parent))
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    use_checkout_sources()
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
