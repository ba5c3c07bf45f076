"""Command-line interface.

Exit codes: 0 success, 1 mathematical verification failure, 2 usage or
resource errors.  All output is JSON with sorted keys, so identical
configuration and seed give byte-identical output.  Calibration signs
live in a small key=value config file; `calibrate` writes them (never
silently overwriting) and `verify`, `morita`, and `johnson` comparisons
refuse to run without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bar import chain_to_jsonable
from .ce import BudgetExceeded, c_mod_b_dim, homology_dims
from .hall import get_basis, lie_to_jsonable
from .homs import (
    Signs,
    calibrate_delta,
    calibrate_epsilon,
    johnson,
    jv_to_jsonable,
    morita,
    verify_morita_johnson,
)
from .malcev import get_context
from .words import (
    MappingClassRep,
    catalog,
    compose,
    parse_automorphism,
    parse_word,
)

DEFAULT_CONFIG = "torelli.conf"

CONFIG_DEFAULTS = {
    "seed": 0,
    "budget_wedges": 2_000_000,
    "budget_chain_terms": 1_000_000,
}


class UsageError(Exception):
    """Bad input or missing resources; mapped to exit code 2."""


def load_config(path: str) -> dict:
    """key=value lines; '#' comments; unknown keys are kept verbatim."""
    conf: dict = dict(CONFIG_DEFAULTS)
    if not os.path.exists(path):
        return conf
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            try:
                conf[key] = int(val)
            except ValueError:
                conf[key] = val
    for key in ("budget_wedges", "budget_chain_terms"):
        if not isinstance(conf.get(key), int) or conf[key] <= 0:
            raise UsageError(f"config {key} must be a positive integer")
    return conf


def save_config(path: str, conf: dict) -> None:
    lines = [f"{k}={conf[k]}" for k in sorted(conf)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def signs_from_config(conf: dict) -> Signs:
    if "epsilon" not in conf or "delta" not in conf:
        raise UsageError(
            "calibration signs missing from the config file; "
            "run `torelli calibrate --g 2` first"
        )
    try:
        return Signs(int(conf["epsilon"]), int(conf["delta"]))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad calibration signs in config: {exc}") from exc


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def resolve_auto(spec: str, g: int) -> MappingClassRep:
    """An automorphism argument: 'catalog:NAME', a suite token string of
    catalog names with optional ^-1, or a path to a description file."""
    if spec.startswith("catalog:"):
        return _suite_line(spec[len("catalog:") :], _catalog(g))
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        try:
            return parse_automorphism(text, g, name=os.path.basename(spec))
        except Exception as exc:
            raise UsageError(f"cannot parse automorphism file {spec}: {exc}") from exc
    raise UsageError(
        f"automorphism spec {spec!r} is neither an existing file nor catalog:NAME"
    )


def _catalog(g: int) -> dict[str, MappingClassRep]:
    if g < 2:
        raise UsageError(f"--g must be >= 2 for catalog mapping classes, got {g}")
    return catalog(g)


def _suite_line(line: str, cat: dict[str, MappingClassRep]) -> MappingClassRep:
    steps = []
    for token in line.split():
        name, _, power = token.partition("^")
        if name not in cat:
            raise UsageError(
                f"unknown catalog name {name!r}; available: {', '.join(sorted(cat))}"
            )
        step = cat[name]
        if power:
            if power != "-1":
                raise UsageError(f"only ^-1 powers are supported, got {token!r}")
            step = step.inverse()
        steps.append(step)
    if not steps:
        raise UsageError("empty mapping-class expression")
    return compose(*steps)


DEFAULT_SUITE = [
    "conj_l",
    "sep1",
    "conj_l^-1",
    "sep1^-1",
    "conj_l sep1",
    "sep1 conj_l",
    "t1 sep1 t1^-1",
    "u1 sep1 u1^-1",
    "t2 conj_l t2^-1",
    "u2 conj_l u2^-1",
]


def load_suite(spec: str, g: int) -> list[tuple[str, MappingClassRep]]:
    if spec == "default":
        lines = DEFAULT_SUITE
    else:
        if not os.path.exists(spec):
            raise UsageError(f"suite file {spec!r} not found")
        with open(spec) as fh:
            lines = [
                ln.split("#", 1)[0].strip()
                for ln in fh.readlines()
            ]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise UsageError(f"suite file {spec!r} contains no mapping classes")
    cat = _catalog(g)
    return [(ln, _suite_line(ln, cat)) for ln in lines]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torelli",
        description="Exact computations with mapping classes on nilpotent "
        "quotients of a surface group: Hall bases, truncated BCH arithmetic, "
        "Lie algebra homology, and the Johnson/Morita homomorphisms.",
    )
    p.add_argument(
        "--config",
        default=DEFAULT_CONFIG,
        help=f"key=value config file (default {DEFAULT_CONFIG})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("hall-dims", help="per-weight dimensions of the free Lie algebra")
    q.add_argument("--n", type=int, required=True, help="number of generators")
    q.add_argument("--class", dest="cls", type=int, required=True, help="nilpotency class")

    q = sub.add_parser("homology", help="rational homology of the free nilpotent Lie algebra")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--nmax", type=int, required=True)
    q.add_argument("--weights", action="store_true", help="include per-weight tables")

    q = sub.add_parser("cmodb-dim", help="dim C3 - dim B3 for the class k-1 algebra")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)

    q = sub.add_parser("log", help="truncated log and normal form of a word")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--word", required=True, help="e.g. 'a1 b1 a1^-1 b1^-1'")

    q = sub.add_parser("johnson", help="Johnson value of a mapping class")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--auto", required=True, help="catalog:NAME, suite tokens, or a file")

    q = sub.add_parser("morita", help="chain-level Morita value and its cap invariant")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--auto", required=True)
    q.add_argument("--cycle", action="store_true", help="include the full cycle")

    q = sub.add_parser("verify", help="check johnson = dual(cap(morita)) on a suite")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--suite", default="default", help="'default' or a file of catalog lines")

    q = sub.add_parser("calibrate", help="fix the global signs and store them")
    q.add_argument("--g", type=int, default=2)
    q.add_argument("--force", action="store_true", help="allow overwriting stored signs")

    return p


# least value of each numeric argument, checked before any computation
ARG_MINIMA = {"g": 1, "k": 2, "nmax": 0}


def run(args: argparse.Namespace) -> int:
    for name, least in ARG_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise UsageError(f"--{name} must be >= {least}, got {value}")
    if args.command == "calibrate" and args.g < 2:
        # calibration caps cycles on generator triples, which need genus >= 2
        raise UsageError(f"--g must be >= 2 for calibration, got {args.g}")
    conf = load_config(args.config)

    if args.command == "hall-dims":
        if args.n < 1 or args.cls < 1:
            raise UsageError("--n and --class must be positive")
        basis = get_basis(args.n, args.cls)
        emit({str(w): basis.dims[w - 1] for w in range(1, args.cls + 1)})
        return 0

    if args.command == "homology":
        dims, tables = homology_dims(
            args.g, args.k, args.nmax, budget=conf["budget_wedges"], per_weight=True
        )
        out = {"dims": {str(n): d for n, d in enumerate(dims)}}
        if args.weights:
            out["weights"] = {
                str(n): {str(w): d for w, d in sorted(t.items())}
                for n, t in enumerate(tables)
            }
        emit(out)
        return 0

    if args.command == "cmodb-dim":
        emit({"c3_mod_b3": c_mod_b_dim(args.g, args.k, budget=conf["budget_wedges"])})
        return 0

    if args.command == "log":
        ctx = get_context(2 * args.g, args.k)
        try:
            w = parse_word(args.word)
        except Exception as exc:
            raise UsageError(f"cannot parse word: {exc}") from exc
        try:
            x = ctx.element(w)
        except ValueError as exc:
            raise UsageError(f"bad word: {exc}") from exc
        emit(
            {
                "k": args.k,
                "log": lie_to_jsonable(x.log),
                "normal_form": list(ctx.normal_form(x)),
            }
        )
        return 0

    if args.command == "johnson":
        phi = resolve_auto(args.auto, args.g)
        try:
            jv = johnson(phi, args.k)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        emit(jv_to_jsonable(jv))
        return 0

    if args.command == "morita":
        signs = signs_from_config(conf)
        phi = resolve_auto(args.auto, args.g)
        try:
            mv = morita(phi, args.k, signs.epsilon, conf["budget_chain_terms"])
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        out = {
            "k": args.k,
            "cycle_terms": len(mv.cycle),
            "d2_invariant": jv_to_jsonable(mv.d2_invariant)["values"],
        }
        if args.cycle:
            out["cycle"] = chain_to_jsonable(mv.cycle)
        emit(out)
        return 0

    if args.command == "verify":
        signs = signs_from_config(conf)
        suite = load_suite(args.suite, args.g)
        results = []
        all_ok = True
        for label, phi in suite:
            try:
                ok, report = verify_morita_johnson(
                    phi, args.k, signs, conf["budget_chain_terms"]
                )
            except ValueError as exc:
                ok, report = False, {"ok": False, "error": str(exc)}
            report["mapping_class"] = label
            results.append(report)
            all_ok = all_ok and ok
        emit(
            {
                "ok": all_ok,
                "epsilon": signs.epsilon,
                "delta": signs.delta,
                "results": results,
            }
        )
        return 0 if all_ok else 1

    if args.command == "calibrate":
        if ("epsilon" in conf or "delta" in conf) and not args.force:
            raise UsageError(
                f"config {args.config} already holds calibration signs; "
                "pass --force to recalibrate"
            )
        epsilon = calibrate_epsilon(args.g, seed=conf["seed"])
        delta = calibrate_delta(epsilon, args.g)
        conf["epsilon"] = epsilon
        conf["delta"] = delta
        save_config(args.config, conf)
        emit({"epsilon": epsilon, "delta": delta, "config": args.config})
        return 0

    raise UsageError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (UsageError, BudgetExceeded) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
