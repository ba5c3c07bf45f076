"""One benchmark child: set up one workload, run it once, check it.

    python3 bench/worker.py --workload NAME --seed N --t0 T [--trace] [--setup-only]
    python3 bench/worker.py --workload NAME --record

It imports torelli from the `src/` directory of the checkout it lives in,
builds the workload's inputs, runs the workload through torelli's public
functions and compares every output with `references.json`.  The last
line of stdout is one JSON object; `run.py` starts it and reads that line.

`--t0` is the parent's `time.monotonic()` just before the child was
started, so `setup_s` covers interpreter start, `import torelli` and input
construction.  `setup_s` and `wall_s` are scaled to a fixed core speed by
the probe of `probe.py`, which runs from the child's first line to its
last; `raw_setup_s` and `raw_wall_s` are the unscaled times.  `--record` writes the workload's outputs into
`references.json` instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from probe import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")

# chain_k3 instances beyond torelli.cli.DEFAULT_SUITE: handle-mixing conjugates
CONJUGATES = ("z sep1 z^-1", "z^-1 sep1 z", "z^2 sep1 z^-2", "t2 z sep1 z^-1 t2^-1")
# johnson_k5 instances: level-5 commutators [sep1, w] of sep1 with a conjugate w
COMMUTATORS = ("[sep1, z^-1 sep1 z]", "[sep1, z sep1 z^-1]")


def import_torelli():
    """Import torelli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "torelli", "__init__.py")):
        raise SystemExit(f"worker: no torelli package under {SRC}")
    sys.path.insert(0, SRC)
    import torelli

    if os.path.dirname(os.path.dirname(os.path.abspath(torelli.__file__))) != SRC:
        raise SystemExit(f"worker: torelli was imported from {torelli.__file__}")
    return torelli


def load_z(torelli):
    with open(os.path.join(HERE, "z.aut")) as fh:
        z = torelli.parse_automorphism(fh.read(), 2, name="z")
    if not torelli.verify_mapping_class(z):
        raise SystemExit("worker: z.aut is not a boundary-fixing automorphism")
    return z


def product(torelli, *factors):
    out = factors[0]
    for f in factors[1:]:
        out = torelli.compose(out, f)
    return out


def setup_chain_k3(torelli, seed, signs_path):
    from torelli.cli import load_config, load_suite, signs_from_config

    z = load_z(torelli)
    zi = z.inverse()
    cat = torelli.catalog(2)
    sep1, t2 = cat["sep1"], cat["t2"]
    conjugates = [
        product(torelli, z, sep1, zi),
        product(torelli, zi, sep1, z),
        product(torelli, z, z, sep1, zi, zi),
        product(torelli, t2, z, sep1, zi, t2.inverse()),
    ]
    signs = signs_from_config(load_config(signs_path))
    instances = [
        (label, (phi, signs))
        for label, phi in load_suite("default", 2) + list(zip(CONJUGATES, conjugates))
    ]
    random.Random(seed).shuffle(instances)
    return instances


def solve_chain_k3(torelli, phi, signs):
    ok, report = torelli.verify_morita_johnson(phi, 3, signs)
    return {"ok": ok, "cycle_terms": report["cycle_terms"]}


def setup_homology_g2k4(torelli, seed, signs_path):
    return [("(2,4,3)", (2, 4, 3))]


def solve_homology_g2k4(torelli, g, k, nmax):
    dims, tables = torelli.homology_dims(g, k, nmax, per_weight=True)
    return {
        "dims": dims,
        "weights": [{str(w): d for w, d in sorted(t.items())} for t in tables],
    }


def setup_johnson_k5(torelli, seed, signs_path):
    z = load_z(torelli)
    zi = z.inverse()
    sep1 = torelli.catalog(2)["sep1"]
    conjugates = (product(torelli, zi, sep1, z), product(torelli, z, sep1, zi))
    instances = [
        (label, (product(torelli, sep1, w, sep1.inverse(), w.inverse()),))
        for label, w in zip(COMMUTATORS, conjugates)
    ]
    random.Random(seed).shuffle(instances)
    return instances


def solve_johnson_k5(torelli, phi):
    from torelli.homs import jv_to_jsonable

    return jv_to_jsonable(torelli.johnson(phi, 5))


# workload -> (setup(torelli, seed, signs path) -> [(label, args)], solve(torelli, *args))
WORKLOADS = {
    "chain_k3": (setup_chain_k3, solve_chain_k3),
    "homology_g2k4": (setup_homology_g2k4, solve_homology_g2k4),
    "johnson_k5": (setup_johnson_k5, solve_johnson_k5),
}


def run(args, probe: SpeedProbe) -> int:
    torelli = import_torelli()
    tracer = sites = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        sites = tracer.install()
    name = args.workload
    setup, solve = WORKLOADS[name]
    instances = setup(torelli, args.seed, args.signs)
    with open(REFERENCES) as fh:
        expected = json.load(fh).get(name, {})
    ready = time.monotonic()
    result = {"setup_s": None, "raw_setup_s": None}
    if args.t0 is not None:
        result.update(setup_s=probe.scaled(args.t0, ready), raw_setup_s=ready - args.t0)
    if args.setup_only:
        probe.stop()
        result["probe"] = probe.summary()
        print(json.dumps(result))
        return 0

    start = time.monotonic()
    outputs, errors = {}, {}
    for label, inst in instances:
        try:
            outputs[label] = solve(torelli, *inst)
        except Exception as exc:  # a raised exception is a failed result
            errors[label] = f"{type(exc).__name__}: {exc}"
    failures = sorted(
        label for label, _ in instances if label in errors or outputs[label] != expected.get(label)
    )
    end = time.monotonic()
    probe.stop()
    result.update(wall_s=probe.scaled(start, end), raw_wall_s=end - start, probe=probe.summary())

    if args.record:
        if errors:
            raise SystemExit(f"worker: cannot record {name}: {errors}")
        with open(REFERENCES) as fh:
            refs = json.load(fh)
        refs[name] = outputs
        with open(REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result.update(
        attempted=len(instances), failed=len(failures), failures=failures,
        errors=errors, outputs=outputs,
    )
    if tracer is not None:
        result["trace"] = {"sites": sites, "aggregates": tracer.aggregates()}
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--signs", default=None, help="config file holding the calibrated signs")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        return run(args, probe)
    finally:  # a timer still armed at exit would kill the process with SIGALRM
        probe.stop()


if __name__ == "__main__":
    sys.exit(main())
