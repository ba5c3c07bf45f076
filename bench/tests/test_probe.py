"""Tests for the core-speed probe's scaling of child times.

    python3 -m pytest -q bench/tests/test_probe.py
"""

from __future__ import annotations

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import probe  # noqa: E402


def probe_with(samples):
    p = probe.SpeedProbe()
    p.samples = list(samples)
    return p


def test_reference_speed_leaves_work_unscaled():
    p = probe_with((0.1 * i, probe.REF_S) for i in range(10))
    # 10 s of wall time, of which the 10 probes took 10 * REF_S
    assert p.scaled(0.0, 10.0) == pytest.approx(10.0 - 10 * probe.REF_S)


def test_half_speed_halves_the_scaled_time():
    p = probe_with((0.1 * i, 2 * probe.REF_S) for i in range(10))
    assert p.scaled(0.0, 10.0) == pytest.approx((10.0 - 20 * probe.REF_S) / 2)


def test_only_samples_inside_the_interval_set_the_speed():
    fast = [(0.1 * i, probe.REF_S) for i in range(10)]
    slow = [(5.0 + 0.1 * i, 4 * probe.REF_S) for i in range(10)]
    p = probe_with(fast + slow)
    assert p.scaled(0.0, 1.0) == pytest.approx(1.0 - 10 * probe.REF_S)
    assert p.scaled(5.0, 6.0) == pytest.approx((1.0 - 40 * probe.REF_S) / 4)


def test_short_interval_falls_back_to_every_sample():
    p = probe_with([(0.0, probe.REF_S), (1.0, 3 * probe.REF_S)] * 3)
    assert p.scaled(0.5, 0.6) == pytest.approx(0.1 * (1 + 1 / 3) / 2)


def test_probe_samples_while_running():
    p = probe.SpeedProbe()
    p.start()
    try:
        end = time.monotonic() + 20 * probe.INTERVAL_S
        while time.monotonic() < end:
            pass
    finally:
        p.stop()
    assert len(p.samples) >= 10
    assert all(d > 0 for _, d in p.samples)
