"""Record the expected answers in ``perfbench/expected/`` from the current code.

Run from the repository root, only at a commit whose answers are trusted:

    python3 perfbench/record.py

Every request is sent on the original labels (no relabeling); the answers
kept are the relabeling-invariant summaries that the benchmark compares
against, plus the exact ``verify --json`` bytes and the cold-start output.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402

import workloads  # noqa: E402
from run import clear_constructor_caches, execute  # noqa: E402


def send(ca, cli, request):
    clear_constructor_caches(ca.constructions)
    _, rc, stdout, error = execute(cli, request.argv)
    if rc != 0:
        raise SystemExit(f"{request.key}: exit {rc}: {error}")
    if not request.extra_check(stdout):
        raise SystemExit(f"{request.key}: closed-form subgroup count mismatch")
    return stdout


def first_of_each_order(doc) -> dict:
    reps: dict[str, int] = {}
    for e, k in enumerate(workloads.element_orders(doc)):
        if e:
            reps.setdefault(str(k), e)
    return reps


def write_json(name: str, data) -> None:
    with open(os.path.join(workloads.EXPECTED_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import complementa as ca
    import complementa.cli as cli

    work_dir = os.path.join(root, ".perfbench", "record")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)

    setup = workloads.lattice_setup(ca, None, work_dir)
    answers = {r.key: r.summarize(send(ca, cli, r)) for r in setup.requests}
    write_json("lattice.json", {"digests": setup.digests, "answers": answers})

    _, docs, _, _ = workloads.prepare_docs(ca, workloads.CHECK_GROUPS, None, work_dir)
    reps = {name: first_of_each_order(doc) for name, doc in docs.items()}
    setup = workloads.check_setup(ca, None, work_dir, reps)
    answers = {}
    for r in setup.requests:
        summary = r.summarize(send(ca, cli, r))
        if answers.setdefault(r.key, summary) != summary:
            raise SystemExit(f"{r.key}: repeated request gave another answer")
    write_json("check.json", {"digests": setup.digests, "reps": reps, "answers": answers})

    setup = workloads.verify_setup(ca, None, work_dir)
    for r in setup.requests:
        with open(os.path.join(workloads.EXPECTED_DIR,
                               workloads.verify_golden_name(r.key)),
                  "w", encoding="utf-8") as fh:
            fh.write(send(ca, cli, r))
    write_json("verify.json", {"digests": setup.digests})

    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "complementa.cli",
                           *workloads.COLD_START_ARGV],
                          capture_output=True, text=True, env=env, check=True)
    with open(os.path.join(workloads.EXPECTED_DIR, "cold-start.json"), "w",
              encoding="utf-8") as fh:
        fh.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
