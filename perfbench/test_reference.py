"""Benchmark-local tests of the speed scaling in ``reference.py`` and of the
percentile estimate in ``run.py``.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import reference  # noqa: E402


def speed_with(samples):
    """A Speed holding the given (start, end) kernel samples."""
    speed = reference.Speed(every_s=1.0)
    for t0, t1 in samples:
        speed.start.append(t0)
        speed.end.append(t1)
    return speed


def test_scale_uses_the_samples_next_to_the_interval():
    # Kernel at REF_S early on, then twice as slow; far samples are ignored.
    ref = reference.REF_S
    samples = [(t, t + ref) for t in (0.0, 1.0, 2.0, 3.0)]
    samples += [(t, t + 2 * ref) for t in (10.0, 11.0, 12.0, 13.0)]
    speed = speed_with(samples)
    assert speed.scale(3.5, 4.0) == pytest.approx(2 * ref / (ref + 2 * ref))
    assert speed.scale(0.5, 0.6) == pytest.approx(1.0)
    assert speed.scale(11.5, 11.6) == pytest.approx(0.5)


def test_scale_of_a_long_interval_uses_samples_across_its_length():
    ref = reference.REF_S
    samples = [(t, t + 2 * ref) for t in (0.0, 1.0, 2.0, 3.0)]
    samples += [(10.0, 10.0 + ref)]
    samples += [(t, t + 2 * ref) for t in (20.0, 21.0, 22.0, 23.0)]
    speed = speed_with(samples)
    # 9 s long: samples from 1.5 s to 28.5 s count, 2 through 8.
    assert speed.scale(10.5, 19.5) == pytest.approx(7 / 13)


def test_scale_at_the_ends_of_the_run():
    ref = reference.REF_S
    speed = speed_with([(t, t + 2 * ref) for t in (1.0, 2.0, 3.0)])
    assert speed.scale(0.0, 0.5) == pytest.approx(0.5)
    assert speed.scale(5.0, 6.0) == pytest.approx(0.5)


def test_catch_up_takes_one_sample_per_period(monkeypatch):
    speed = reference.Speed(every_s=0.5)
    speed.sample()
    clock = speed.last_end
    monkeypatch.setattr(reference.time, "perf_counter", lambda: clock + 2.2)
    monkeypatch.setattr(reference, "kernel", lambda: reference.EXPECTED_KERNEL)
    speed.catch_up()
    assert len(speed.start) == 1 + 4


def test_kernel_answer_is_fixed():
    assert reference.kernel() == reference.EXPECTED_KERNEL


def test_harrell_davis_percentile():
    import run

    assert run.percentile([4.0], 50) == 4.0
    assert run.percentile([3.0] * 7, 90) == pytest.approx(3.0)
    # Symmetric weights: the median estimate of 1..5 is 3.
    assert run.percentile([5.0, 1.0, 4.0, 2.0, 3.0], 50) == pytest.approx(3.0)
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    p50, p90 = run.percentile(values, 50), run.percentile(values, 90)
    assert min(values) < p50 < p90 < max(values)
