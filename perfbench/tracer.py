"""Spans around calls into coincalc's public functions, recorded from outside.

The tracer wraps each function named in TRACED where coincalc looks it up:
the class attribute for methods, and every coincalc module global that holds
a module-level function.  Calls made inside the package are therefore traced
too.  Spans stay in memory (up to a cap) and per-function totals are kept as
they end; both are written out once, when the run is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter_ns

# (module, attribute path in the module, metric name)
TRACED = (
    ("cli", "main", "cli.main"),
    ("exprs", "parse_class", "exprs.parse_class"),
    ("tables", "parse_tables", "tables.parse_tables"),
    ("tables", "serialize_tables", "tables.serialize_tables"),
    ("tables", "resolve_entry", "tables.resolve_entry"),
    ("spheres", "SphereTables.lookup", "spheres.lookup"),
    ("spheres", "SphereTables.suspend", "spheres.suspend"),
    ("spheres", "SphereTables.stabilize", "spheres.stabilize"),
    ("spheres", "SphereTables.gamma", "spheres.gamma"),
    ("spheres", "SphereTables.antipodal_compose", "spheres.antipodal_compose"),
    ("spheres", "SphereTables.suspension_image_contains", "spheres.suspension_image_contains"),
    ("spheres", "SphereTables.kernel_chain", "spheres.kernel_chain"),
    ("spheres", "SphereTables.validate", "spheres.validate"),
    ("stable", "StableRing.stem", "stable.stem"),
    ("stable", "StableRing.multiply", "stable.multiply"),
    ("fgab", "smith_normal_form", "fgab.smith_normal_form"),
    ("fgab", "kernel_into_coords", "fgab.kernel_into_coords"),
    ("fgab", "Subgroup.contains", "fgab.Subgroup.contains"),
    ("fgab", "subgroup_cmp", "fgab.subgroup_cmp"),
    ("projective", "decompose_valid", "projective.decompose_valid"),
    ("selfco", "self_loose", "selfco.self_loose"),
    ("selfco", "residual_not_parallel", "selfco.residual_not_parallel"),
    ("invariants", "sphere_report", "invariants.sphere_report"),
    ("invariants", "projective_report", "invariants.projective_report"),
    ("invariants", "equivalence_scan", "invariants.equivalence_scan"),
)
NAMES = tuple(name for _m, _a, name in TRACED)
SPAN_FIELDS = 5  # op, function index, parent span (-1 for none), start ns, end ns


class Tracer:
    """Per-function call counts, self and total time, and repeat counters."""

    def __init__(self, span_cap: int = 50_000):
        n = len(TRACED)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.op = 0
        self.spans = array("q")
        self.span_cap = span_cap
        self.dropped_spans = 0
        self.counters = {
            "lookup.calls": 0, "lookup.repeats": 0,
            "kernel_chain.calls": 0, "kernel_chain.repeats": 0,
            "snf.calls": 0, "snf.repeats": 0, "snf.max_dim": 0, "snf.max_entry_bits": 0,
        }
        self._seen_lookup = weakref.WeakKeyDictionary()
        self._seen_chain = weakref.WeakKeyDictionary()
        self._seen_snf: set = set()
        self._stack: list[list[int]] = []
        self._active = [0] * n
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ probes

    def _probe_lookup(self, args):
        tables, key = args[0], args[1:3]
        seen = self._seen_lookup.setdefault(tables, set())
        self.counters["lookup.calls"] += 1
        if key in seen:
            self.counters["lookup.repeats"] += 1
        seen.add(key)

    def _probe_chain(self, args):
        tables, key = args[0], args[1:4]
        seen = self._seen_chain.setdefault(tables, set())
        self.counters["kernel_chain.calls"] += 1
        if key in seen:
            self.counters["kernel_chain.repeats"] += 1
        seen.add(key)

    def _probe_snf(self, args):
        key = tuple(tuple(row) for row in args[0])
        c = self.counters
        c["snf.calls"] += 1
        if key in self._seen_snf:
            c["snf.repeats"] += 1
        self._seen_snf.add(key)
        c["snf.max_dim"] = max(c["snf.max_dim"], len(key), len(key[0]) if key else 0)
        bits = max((abs(x).bit_length() for row in key for x in row), default=0)
        c["snf.max_entry_bits"] = max(c["snf.max_entry_bits"], bits)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, idx: int, fn, probe):
        stack, active, spans = self._stack, self._active, self.spans
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            parent = stack[-1][3] if stack else -1
            if len(spans) < self.span_cap * SPAN_FIELDS:
                span = len(spans) // SPAN_FIELDS
                spans.extend((self.op, idx, parent, 0, 0))
            else:
                span = -1
                self.dropped_spans += 1
            frame = [idx, perf_counter_ns(), 0, span]
            stack.append(frame)
            active[idx] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                active[idx] -= 1
                dur = end - frame[1]
                calls[idx] += 1
                self_ns[idx] += dur - frame[2]
                if not active[idx]:
                    total_ns[idx] += dur
                if stack:
                    stack[-1][2] += dur
                if span >= 0:
                    spans[span * SPAN_FIELDS + 3] = frame[1]
                    spans[span * SPAN_FIELDS + 4] = end

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        probes = {
            "spheres.lookup": self._probe_lookup,
            "spheres.kernel_chain": self._probe_chain,
            "fgab.smith_normal_form": self._probe_snf,
        }
        for mod_name, _path, _name in TRACED:
            importlib.import_module(f"coincalc.{mod_name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "coincalc"]
        for idx, (mod_name, path, name) in enumerate(TRACED):
            module = sys.modules[f"coincalc.{mod_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(idx, original, probes.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(idx, original, probes.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ----------------------------------------------------------- results

    def summary(self) -> dict:
        return {
            "functions": {
                name: [self.calls[i], self.self_ns[i], self.total_ns[i]]
                for i, name in enumerate(NAMES)
            },
            "counters": dict(self.counters),
            "spans": len(self.spans) // SPAN_FIELDS,
            "dropped_spans": self.dropped_spans,
        }

    def write_spans(self, path: str, names=NAMES) -> None:
        """One line per span: op, span id, parent id, function, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,function,start_ns,end_ns\n")
            s = self.spans
            for i in range(len(s) // SPAN_FIELDS):
                op, idx, parent, start, end = s[i * SPAN_FIELDS : (i + 1) * SPAN_FIELDS]
                fh.write(f"{op},{i},{parent},{names[idx]},{start},{end}\n")


def merge(total: dict, part: dict) -> None:
    """Add one process's summary into a running total (cli_oneshot)."""
    for name, vals in part["functions"].items():
        acc = total["functions"].setdefault(name, [0, 0, 0])
        for i, v in enumerate(vals):
            acc[i] += v
    for key, v in part["counters"].items():
        if key.endswith(("max_dim", "max_entry_bits")):
            total["counters"][key] = max(total["counters"].get(key, 0), v)
        else:
            total["counters"][key] = total["counters"].get(key, 0) + v
    total["spans"] = total.get("spans", 0) + part["spans"]
    total["dropped_spans"] = total.get("dropped_spans", 0) + part["dropped_spans"]
