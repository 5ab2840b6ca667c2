"""Self-test of the benchmark itself (a few minutes).

    python3 perfbench/selftest.py

1. Smoke: every workload runs through ``run.py --smoke``, untraced and
   traced. Each run must pass its gates and emit exactly the metrics that
   BENCHMARK.json lists, every end-to-end one untraced and every per-layer
   one traced, each with its unit; the stage times plus
   ``stage.unattributed`` must add up to ``model.forward_ms``.
2. Gates: each correctness gate must fail when handed a deliberately wrong
   reference.

Exits 0 when everything holds, 1 otherwise.
"""

import run  # noqa: I001  (pins BLAS threads before numpy is imported)

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "op_ms": "ms"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS  " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def smoke(bench: dict) -> None:
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
           "BENCHMARK.json lists the end-to-end metrics and units")
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    # eval-dense is not in BENCHMARK.json (see README.md) but still runs
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            expect(proc.returncode == 0, f"{label}: exit 0 {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: gates pass with no failed operations")
            metrics = result["metrics"]
            units = layer_units if trace else END_TO_END
            expect(set(metrics) == set(units), f"{label}: emits every listed metric, and no other "
                   f"{sorted(set(units) ^ set(metrics))}")
            expect(all(units.get(n) == m["unit"] for n, m in metrics.items()), f"{label}: units")
            expect(all(isinstance(m["value"], (int, float)) for m in metrics.values()), f"{label}: numbers")
            if not trace:
                expect(all(m["value"] > 0 for m in metrics.values()), f"{label}: end-to-end metrics above 0")
            if trace:
                stages = sum(m["value"] for n, m in metrics.items()
                             if n.startswith("stage.") and n.endswith(".fwd_ms"))
                total = metrics["model.forward_ms"]["value"]
                expect(abs(stages - total) <= 1e-9 * total, f"{label}: stages add up to model.forward_ms")


def gates() -> None:
    import workloads as W

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wrong = copy.deepcopy(reference)
    wrong["train-default"]["losses"][1] *= 1 + 1e-11
    wrong["eval-dense"]["confusion"][0][3] -= 1
    wrong["eval-dense"]["confusion"][0][2] += 1
    wrong["ingest"]["hierarchy_sizes"][1] += 1
    for workload in ("train-default", "eval-dense", "ingest"):
        result, _ = run.measure(workload, 1, 0.1, trace=False, smoke=True, reference=reference)
        expect(result["correct"], f"{workload}: canary passes against reference.json")
        result, info = run.measure(workload, 1, 0.1, trace=False, smoke=True, reference=wrong)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: canary fails against a wrong reference {info['gates']}")

    passed, lines = W.run_gradcheck("tensor", tol=1e-300)
    checks, bad = W.suite_failures(lines, passed)
    expect(checks == len(bad) > 0, "gradcheck: every check fails at an impossible tolerance")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        a.write_bytes(b"semaffine")
        b.write_bytes(b"semaffinf")
        expect(bool(W.same_bytes(a, b)), "ingest: byte-identity gate fails on different bytes")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.use_checkout_sources()
    smoke(bench)
    gates()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
