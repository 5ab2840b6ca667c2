"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads train-default,ingest --seeds 0-9 \
        [--trace 0|1] [--out perfbench/BENCH_0.json]

Each (workload, seed) is one ``run.py`` process, run one after another from
the checkout root with ``run_seconds`` from BENCHMARK.json. For every metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound. ``--out`` merges the
runs and summaries into a results file, keeping the file's other keys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    section = results.setdefault("trace" if args.trace else "end_to_end", {})

    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} attempted={run['attempted']} "
                  f"failed={run['failed']}", flush=True)
        summary = summarize(runs, bounds)
        for name, s in summary.items():
            bound, spread = s["bound"], s["spread"]
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:36s} median {s['median']:.6g} {s['unit']:6s} "
                  + ("spread -" if spread is None else f"spread {spread:.3f}")  # a median of 0
                  + ("" if bound is None else f" bound {bound}") + flag)
        results["env"] = runs[0]["info"]["env"]
        section[workload] = {
            "seeds": [r["info"]["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "summary": summary,
            "values": {name: [r["metrics"][name]["value"] for r in runs] for name in summary},
        }
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
