"""Benchmark-local tests: relabeled inputs describe the same group, and a
wrong expected answer is counted as a failure.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import complementa as ca  # noqa: E402
import complementa.cli as cli  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GROUPS = [("holomorph8", ("holomorph8",)), ("split-p5-2", ("split-p5", 2)),
          ("s5", ("S5",))]


def lattice_fingerprint(path):
    _, rc, stdout, error = run.execute(cli, ["lattice", "--recipe", str(path)])
    assert rc == 0, error
    return workloads.lattice_fingerprint(stdout)


@pytest.mark.parametrize("name,spec", GROUPS)
def test_two_seeds_keep_the_fingerprint(tmp_path, name, spec):
    doc = ca.group_to_dict(inputs.build_group(ca, spec))
    plain = tmp_path / "plain.json"
    workloads.write_doc(doc, plain)
    expected = lattice_fingerprint(plain)
    seen = set()
    for seed in (1, 2):
        perm = inputs.relabeling(doc["order"], inputs.seeded_rng(seed, name))
        assert perm[0] == 0 and sorted(perm) == list(range(doc["order"]))
        seen.add(tuple(perm))
        moved = inputs.relabel(doc, perm)
        assert moved["generators"] == [perm[g] for g in doc["generators"]]
        assert [moved["labels"][perm[i]] for i in range(doc["order"])] == doc["labels"]
        path = tmp_path / f"seed{seed}.json"
        workloads.write_doc(moved, path)
        assert lattice_fingerprint(path) == expected
    assert len(seen) == 2


def test_same_seed_same_input():
    doc = ca.group_to_dict(ca.holomorph8().group)
    a = inputs.relabeling(doc["order"], inputs.seeded_rng(7, "holomorph8"))
    b = inputs.relabeling(doc["order"], inputs.seeded_rng(7, "holomorph8"))
    assert a == b


def test_closed_forms():
    assert inputs.elementary_abelian_subgroups(2, 6) == 2825
    assert inputs.dihedral_subgroups(128) == 263
    assert inputs.elementary_abelian_subgroups(3, 5) == 2664


def test_corrupted_answer_counts_as_failure(tmp_path):
    setup = workloads.check_setup(ca, 3, str(tmp_path))
    answers, _ = workloads.expected_for("check")
    req = next(r for r in setup.requests if r.key.startswith("holomorph8:complemented"))
    _, rc, stdout, error = run.execute(cli, req.argv)
    assert run.judge(req, answers, rc, stdout, error)[0]
    corrupted = dict(answers)
    corrupted[req.key] = dict(answers[req.key], complements=answers[req.key]["complements"] + 1)
    ok, _, reason = run.judge(req, corrupted, rc, stdout, error)
    assert not ok and "expected" in reason
