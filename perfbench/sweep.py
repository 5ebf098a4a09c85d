"""Run the benchmark over several seeds and summarize the spread.

Run from the repository root:

    python3 perfbench/sweep.py --workloads lattice check verify --seeds 1-10 \
        [--trace 0|1] [--out perfbench/baseline.json]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  Runs are sequential: one benchmark process at a time.
``--out`` stores the summary in a JSON file under ``end_to_end`` or
``per_layer`` (by ``--trace``), next to a description of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "system": platform.system()}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args()

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {}
    for workload in args.workloads:
        results = []
        for seed in seeds:
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']} of "
                      f"{res['attempted']} operations failed", file=sys.stderr)
            results.append(res)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"seeds": seeds,
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "metrics": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            s = entry["metrics"][name] = summarize(values)
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "  ok" if s["spread"] < bound / 3 else
                "  within bound" if s["spread"] <= bound else "  OVER BOUND")
            print(f"  {workload:8s} {name:40s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
                  + (f" bound={bound}{flag}" if bound is not None else ""), flush=True)
        report[workload] = entry
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data["machine"] = machine()
        data["run_seconds"] = bench["run_seconds"]
        data["per_layer" if args.trace else "end_to_end"] = report
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
