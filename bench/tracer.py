"""Per-layer tracing of torelli from outside the library.

`install()` replaces each entry point in `ENTRY_POINTS` by a timing
wrapper, at every place the function is bound: its defining module, every
torelli module that imported it by name, and the package namespace.
Methods are wrapped once, on their class.  Nothing under `src/` changes.

The tracer keeps one aggregate per (entry point, nearest traced caller):
calls, total time, self time and the entry point's extra counts.  Total
time counts only the outermost active call of a name, so recursion is not
counted twice; self time is total time minus the time of traced callees.
These are raw perf_counter times: the core-speed probe of probe.py runs
in the traced child too, and its ticks (about 1%) fall into whichever
entry point is running.
"""

from __future__ import annotations

import functools
import sys
import time


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[0])


def _mul_pairs(args, result):
    return len(args[1]) * len(args[2])


def _nnz(args, result):
    return sum(len(row) for row in args[0])


# layer -> (module, qualified name, {count name: count(args, result)})
ENTRY_POINTS: dict[str, list[tuple[str, str, dict]]] = {
    "words": [
        ("torelli.words", "Word.make", {}),
        ("torelli.words", "apply_endo", {"letters_out": _len_result}),
        ("torelli.words", "compose", {}),
    ],
    "hall": [
        ("torelli.hall", "get_basis", {}),
        ("torelli.hall", "HallBasis.bracket_indices", {}),
    ],
    "tensor": [
        ("torelli.tensor", "TensorContext.mul", {"pairs": _mul_pairs, "terms_out": _len_result}),
        ("torelli.tensor", "TensorContext.exp", {}),
        ("torelli.tensor", "TensorContext.log", {}),
        ("torelli.tensor", "TensorContext.inverse", {}),
        ("torelli.tensor", "TensorContext.to_lie", {}),
        ("torelli.tensor", "TensorContext.from_lie", {}),
    ],
    "malcev": [
        ("torelli.malcev", "MalcevContext.word_group", {}),
        ("torelli.malcev", "MalcevContext.log_word", {}),
        ("torelli.malcev", "MalcevContext.normal_form", {}),
        ("torelli.malcev", "MalcevContext.from_normal_form", {}),
        ("torelli.malcev", "MalcevContext.section", {}),
        ("torelli.malcev", "MalcevContext.cocycle", {}),
        ("torelli.malcev", "NilElement.__mul__", {}),
    ],
    "bar": [
        ("torelli.bar", "act_on_chain", {}),
        ("torelli.bar", "bound_two_cycle", {"terms_out": _len_result}),
        ("torelli.bar", "push", {"terms_out": _len_result}),
        ("torelli.bar", "bar_boundary", {"terms_in": _len_first_arg}),
        ("torelli.bar", "cap_d2", {}),
    ],
    "ce": [
        ("torelli.ce", "homology_dims", {}),
        ("torelli.ce", "ce_boundary", {}),
    ],
    "linalg": [
        ("torelli.linalg", "rank_bareiss", {"rows": _len_first_arg, "nnz": _nnz}),
        ("torelli.linalg", "rank_gauss", {"rows": _len_first_arg, "nnz": _nnz}),
    ],
    "homs": [
        ("torelli.homs", "johnson", {}),
        ("torelli.homs", "morita", {}),
        ("torelli.homs", "verify_morita_johnson", {}),
    ],
}


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in table order."""
    out = []
    for layer, entries in ENTRY_POINTS.items():
        for _, qualname, counts in entries:
            base = f"{layer}.{qualname}"
            out += [(f"{base}.calls", "count"), (f"{base}.total_s", "s"), (f"{base}.self_s", "s")]
            out += [(f"{base}.{c}", "count") for c in counts]
    return out


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [name, time spent in traced callees]
        self._active: dict[str, int] = {}
        self._agg: dict[tuple, list] = {}  # (name, parent) -> [calls, total, self, counts]

    def wrap(self, name: str, fn, counts: dict):
        stack, active, agg, clock = self._stack, self._active, self._agg, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0, dict.fromkeys(counts, 0)]
                rec[0] += 1
                if not active[name]:
                    rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            for c, f in counts.items():
                rec[3][c] += f(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every entry point; return the module-level binding sites
        that were rebound, as 'module.attribute'."""
        sites = []
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "torelli" or n.startswith("torelli.")
        ]
        for layer, entries in ENTRY_POINTS.items():
            for modname, qualname, counts in entries:
                owner = sys.modules[modname]
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, counts)))
                    else:
                        setattr(cls, attr, self.wrap(name, raw, counts))
                    sites.append(f"{modname}.{qualname}")
                    continue
                original = getattr(owner, qualname)
                traced = self.wrap(name, original, counts)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            sites.append(f"{mod.__name__}.{attr}")
        return sites

    def aggregates(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": rec[0], "total_s": rec[1],
             "self_s": rec[2], "counts": rec[3]}
            for (name, parent), rec in sorted(self._agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]


def per_layer_metrics(aggregates: list[dict]) -> dict[str, float]:
    """Sum the (name, parent) aggregates per entry point; entry points that
    were never called report 0."""
    out = {name: 0 for name, _ in metric_names()}
    for rec in aggregates:
        base = rec["name"]
        out[f"{base}.calls"] += rec["calls"]
        out[f"{base}.total_s"] += rec["total_s"]
        out[f"{base}.self_s"] += rec["self_s"]
        for c, v in rec["counts"].items():
            out[f"{base}.{c}"] += v
    return out
