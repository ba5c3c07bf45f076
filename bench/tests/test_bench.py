"""Tests for the benchmark itself: tracer wiring, the per-layer call
predictions of each workload, and traced outputs equal to untraced ones.

    python3 -m pytest -q bench/tests

Each workload is run once through `run.py --trace 1` (one untraced and
one traced child), which takes about a minute in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 7

# Entry points (by name prefix) each workload must call, and those it must
# never reach.  Every traced entry point is claimed by some CALLED prefix.
CALLED = {
    "chain_k3": ["words.", "hall.get_basis", "tensor.", "malcev.", "bar.", "homs."],
    "homology_g2k4": ["hall.", "ce.", "linalg."],
    "johnson_k5": [
        "words.", "tensor.TensorContext.mul", "malcev.MalcevContext.word_group",
        "malcev.MalcevContext.log_word", "homs.johnson",
    ],
}
BYPASSED = {
    "chain_k3": ["ce.", "linalg."],
    "homology_g2k4": ["words.", "tensor.", "malcev.", "bar.", "homs."],
    "johnson_k5": [
        "bar.", "ce.", "linalg.", "malcev.MalcevContext.cocycle",
        "malcev.MalcevContext.normal_form", "malcev.MalcevContext.section",
    ],
}
ENTRY_POINTS = [
    f"{layer}.{qualname}" for layer, entries in tracer.ENTRY_POINTS.items() for _, qualname, _ in entries
]


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, cwd=ROOT, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        with open(os.path.join(BENCH, "out", f"{workload}-seed{SEED}-trace1.json")) as fh:
            record = json.load(fh)
        runs[workload] = (result, record)
    return runs


def test_every_entry_point_is_claimed_by_a_workload():
    for name in ENTRY_POINTS:
        assert any(name.startswith(p) for ps in CALLED.values() for p in ps), name


def test_called_where_the_workload_moves_it(traced_runs):
    for workload, prefixes in CALLED.items():
        metrics = traced_runs[workload][0]["metrics"]
        for name in ENTRY_POINTS:
            if any(name.startswith(p) for p in prefixes):
                assert metrics[f"{name}.calls"]["value"] >= 1, (workload, name)


def test_zero_calls_where_the_workload_bypasses_it(traced_runs):
    for workload, prefixes in BYPASSED.items():
        metrics = traced_runs[workload][0]["metrics"]
        for name in ENTRY_POINTS:
            if any(name.startswith(p) for p in prefixes):
                assert metrics[f"{name}.calls"]["value"] == 0, (workload, name)


def test_traced_outputs_equal_untraced_outputs(traced_runs):
    for workload, (result, record) in traced_runs.items():
        assert result["correct"] and result["failed"] == 0, workload
        untraced = [c for c in record["children"] if "trace" not in c]
        traced = [c for c in record["children"] if "trace" in c]
        assert len(traced) == 1 and untraced, workload
        for child in untraced:
            assert child["outputs"] == traced[0]["outputs"], workload


def test_names_bound_by_import_are_wrapped_too(traced_runs):
    sites = set(traced_runs["chain_k3"][1]["children"][-1]["trace"]["sites"])
    for site in [
        "torelli.ce.rank_bareiss", "torelli.ce.rank_gauss",
        "torelli.homs.act_on_chain", "torelli.homs.bound_two_cycle",
        "torelli.homs.push", "torelli.homs.cap_d2",
        "torelli.malcev.apply_endo", "torelli.bar.apply_endo", "torelli.homs.apply_endo",
        "torelli.verify_morita_johnson",
    ]:
        assert site in sites, site


def test_metrics_match_benchmark_json(traced_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, (result, _) in traced_runs.items():
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == per_layer, workload


def test_no_original_left_bound_after_install():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import torelli, tracer\n"
        "originals = {id(getattr(sys.modules[m], q)) for es in tracer.ENTRY_POINTS.values()\n"
        "             for m, q, _ in es if '.' not in q}\n"
        "tracer.Tracer().install()\n"
        "left = [f'{n}.{a}' for n, m in list(sys.modules.items()) if n.startswith('torelli')\n"
        "        for a, v in vars(m).items() if id(v) in originals]\n"
        "print(left)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), BENCH],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"
