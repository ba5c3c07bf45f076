"""Benchmark runner for torelli.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  chain_k3       verify_morita_johnson at k=3 on the default CLI suite plus
                 four handle-mixing conjugates by the automorphism in z.aut
  homology_g2k4  homology_dims(2, 4, 3, per_weight=True)
  johnson_k5     johnson(y, 5) for two level-5 commutators built from z.aut

Every measured repetition is a fresh child process (`worker.py`), one at
a time, because every torelli cache is module-global and each command-line
invocation pays to fill it.  The run starts children until `--seconds` is
used up and reports medians over them:

  wall_s       inputs ready -> results checked, inside the child
  setup_s      child start -> inputs ready (interpreter, import, inputs);
               extra set-up-only children make this a median of many
  peak_rss_mb  the child's peak resident memory, from os.wait4

wall_s and setup_s are in reference seconds: each child scales its own
times to a fixed core speed with the probe of probe.py, because the
speed of a shared host drifts by more than these metrics' bounds within
minutes.  The unscaled medians are printed to stderr and kept in the run
record as raw_wall_s and raw_setup_s.

With `--trace 1` the run spends half of `--seconds` on untraced children
and then runs one traced child (see tracer.py); it reports the per-layer
metrics of that child and its wall time over the untraced median, minus
one, as `trace.overhead_frac`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A human-readable summary, failed_frac
included, goes to stderr, and the full record of the run (every child,
the noise witness, the run metadata and the per-caller trace aggregates)
to bench/out/.  The process exits 2 without a result if a child cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170  # a whole run, calibration and all, ends before this
SETUPS_PER_CHILD = 3  # set-up-only children after each measured child
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


class ChildError(Exception):
    pass


def _alarm(signum, frame):
    raise TimeoutError


def run_child(args: list[str], deadline: float):
    """Run worker.py with `args`; return (its JSON result, its rusage)."""
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV,
    )
    signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.01))
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise ChildError(f"worker {' '.join(args)} passed the run's time limit") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildError(f"worker {' '.join(args)} exited with {proc.returncode}")
    try:
        return json.loads(out.decode().splitlines()[-1]), usage
    except (IndexError, ValueError):
        raise ChildError(f"worker {' '.join(args)} printed no result") from None


def calibrate(deadline: float) -> tuple[str, tuple[int, int]]:
    """`torelli calibrate --g 2` in its own process, untimed; returns the
    config file it wrote and the signs (epsilon, delta)."""
    conf = os.path.join(OUT, "torelli.conf")
    proc = subprocess.run(
        [sys.executable, "-m", "torelli.cli", "--config", conf, "calibrate", "--g", "2", "--force"],
        capture_output=True, cwd=ROOT, timeout=max(deadline - time.monotonic(), 0.01),
        env=dict(CHILD_ENV, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    if proc.returncode != 0:
        raise ChildError(f"torelli calibrate exited with {proc.returncode}: {proc.stderr.decode()}")
    out = json.loads(proc.stdout)
    return conf, (out["epsilon"], out["delta"])


def witness() -> float:
    """Time a fixed pure-Python loop.  Recorded next to every child so that
    machine drift can be told from a regression; it is not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def metadata() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT)
            sha = proc.stdout.decode().strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(common: list[str], window_s: float, deadline: float):
    """Measured untraced children, each followed by SETUPS_PER_CHILD
    set-up-only children: at least one round, then more while another
    round, as long as the median one so far, would end no later than half
    a round after the window, so that long rounds fill the window too.
    Returns (measured children, results of all children)."""
    start = time.monotonic()
    children, setups = [], []
    while True:
        t = time.monotonic()
        before = witness()
        res, usage = run_child(common, deadline)
        res.update(peak_rss_mb=usage.ru_maxrss / 1024, user_s=usage.ru_utime,
                   witness_s=[before, witness()])
        children.append(res)
        setups.append(res)
        for _ in range(SETUPS_PER_CHILD):
            setups.append(run_child(common + ["--setup-only"], deadline)[0])
        res["round_s"] = time.monotonic() - t
        typical = statistics.median(c["round_s"] for c in children)
        if time.monotonic() - start + typical / 2 > window_s:
            return children, setups


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run of one workload; prints its result line.  Returns the exit code."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "meta": metadata()}
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    common = ["--workload", workload, "--seed", str(seed)]
    attempted = failed = 0
    try:
        if workload == "chain_k3":
            conf, signs = calibrate(deadline)
            common += ["--signs", conf]
            record["signs"] = signs
            attempted += 1
            failed += list(signs) != refs["signs"]
        run_child(common + ["--setup-only"], deadline)  # untimed: byte-compiles src/
        window = seconds / 2 if trace else seconds
        children, setups = measure(common, window, deadline)
        traced = None
        if trace:
            traced, _ = run_child(common + ["--trace"], deadline)
            children.append(traced)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for c in children:
        attempted += c["attempted"]
        failed += c["failed"]
    untraced = [c for c in children if c is not traced]
    wall = statistics.median(c["wall_s"] for c in untraced)
    if trace:
        units = dict(tracer.metric_names())
        per_layer = tracer.per_layer_metrics(traced["trace"]["aggregates"])
        metrics = {n: {"value": v, "unit": units[n]} for n, v in per_layer.items()}
        metrics["trace.overhead_frac"] = {"value": traced["wall_s"] / wall - 1, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(c["setup_s"] for c in setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in untraced),
                            "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    raw = {
        "raw_wall_s": {"value": statistics.median(c["raw_wall_s"] for c in untraced), "unit": "s"},
        "raw_setup_s": {"value": statistics.median(c["raw_setup_s"] for c in setups), "unit": "s"},
    }
    record.update(result, **raw, failed_frac=failed / attempted, children=children,
                  setups=[{k: c[k] for k in ("setup_s", "raw_setup_s", "probe")} for c in setups])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    summary = {n: metrics[n] for n in ("wall_s", "setup_s", "peak_rss_mb", "trace.overhead_frac")
               if n in metrics}
    summary.update(raw)
    summary["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    print(f"bench {workload} seed={seed}: {len(untraced)} measured children, "
          f"{len(setups)} set-ups, {failed} of {attempted} checks failed", file=sys.stderr)
    for name, m in summary.items():
        print(f"  {name} = {m['value']:.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="torelli benchmark runner")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = run_workload(workload, args.seed, args.seconds, args.trace)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
