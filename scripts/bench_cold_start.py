#!/usr/bin/env python3
"""Time the CLI cold start: a fresh ``python -m complementa.cli`` process.

Each round spawns, for each probe, the perfbench reference process
(``SPAWN_ARGS`` of ``perfbench/reference.py``: an interpreter that imports
numpy, json, decimal, fractions and argparse) and then the probe process,
and times both from spawn to exit.  The probes are the perfbench cold-start
request (``bounds --m 2``, whose stdout must match the recorded
``perfbench/expected/cold-start.json``) and ``-h``.  Like perfbench, it
scales each probe by the reference process spawned just before it: scaled
= raw · ``SPAWN_REF_S`` / reference, the time the probe would take on a
machine where the reference process takes ``SPAWN_REF_S`` (0.120 s).  It
records, per probe, the median raw and scaled milliseconds over ``ROUNDS``
rounds and whether every probe exited 0 with the expected output.  Both
trees are byte-compiled first, so no probe pays for compilation.

With ``--baseline SRC``, the tree in SRC (its ``src`` directory) is probed
too: each round probes both trees, each going first in every other round
(``interleaved`` of ``harness.py``), with ``PYTHONPATH`` set to that tree's
``src``.  The baseline's results go to ``BENCH_<label>-parent.json``.

Usage: PYTHONPATH=src python scripts/bench_cold_start.py --label NAME
       [--out-dir .] [--baseline SRC]
"""

import compileall
import os
import statistics
import subprocess
import sys
import time

import complementa
from harness import arguments, interleaved, perfbench_module, write_reports

ROUNDS = 21

TIMEOUT_S = 60


def probe_argvs() -> dict:
    """Each probe's name, argv and expected stdout (None: not checked)."""
    workloads = perfbench_module("workloads")
    with open(os.path.join(workloads.EXPECTED_DIR, "cold-start.json"),
              encoding="utf-8") as fh:
        golden = fh.read()
    return {" ".join(workloads.COLD_START_ARGV): (workloads.COLD_START_ARGV, golden),
            "-h": (["-h"], None)}


def spawn(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=TIMEOUT_S)
    return time.perf_counter() - t0, proc


def main() -> int:
    args = arguments(__doc__)
    reference = perfbench_module("reference")
    probes = probe_argvs()
    srcs = [os.path.dirname(os.path.dirname(os.path.abspath(complementa.__file__)))]
    labels = [args.label]
    if args.baseline:
        srcs.append(os.path.abspath(args.baseline))
        labels.append(f"{args.label}-parent")
    for src in srcs:
        compileall.compile_dir(src, quiet=1)

    def run(src, i):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        out = {}
        for name, (argv, expected) in probes.items():
            ref_s, ref = spawn([sys.executable, *reference.SPAWN_ARGS], env)
            raw_s, proc = spawn([sys.executable, "-m", "complementa.cli", *argv], env)
            ok = (ref.returncode == 0 and proc.returncode == 0
                  and (expected is None or proc.stdout == expected))
            out[name] = (raw_s, ref_s, ok)
        return out

    reports = []
    for label, rounds in zip(labels, interleaved(srcs, run, ROUNDS)):
        rows = {}
        for name in probes:
            raw = [r[name][0] * 1000.0 for r in rounds]
            ref = [r[name][1] * 1000.0 for r in rounds]
            scaled = [a * reference.SPAWN_REF_S * 1000.0 / b for a, b in zip(raw, ref)]
            rows[name] = {"scaled_ms": statistics.median(scaled),
                          "raw_ms": statistics.median(raw),
                          "reference_ms": statistics.median(ref),
                          "all_ok": all(r[name][2] for r in rounds),
                          "scaled_runs_ms": scaled, "raw_runs_ms": raw,
                          "reference_runs_ms": ref}
            print(f"[{label}] {name:>12} scaled={rows[name]['scaled_ms']:6.1f}ms "
                  f"raw={rows[name]['raw_ms']:6.1f}ms "
                  f"reference={rows[name]['reference_ms']:6.1f}ms"
                  f"{'' if rows[name]['all_ok'] else '  FAILED'}")
        reports.append({"reference_args": reference.SPAWN_ARGS,
                        "spawn_ref_s": reference.SPAWN_REF_S, "probes": rows})
    write_reports(args.out_dir, labels, reports, repeats=ROUNDS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
