"""Spans around the public functions of critgroups, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
module attribute that refers to it (``critgroups.linalg.minor_gcd_all``
and ``critgroups.verify.minor_gcd_all`` alike), so calls the package makes
between its own modules are seen.  Spans (name, parent, start, end) are
kept in flat arrays in memory and written out once at the end.

A span's self time is its duration minus the durations of its child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import time
from array import array
from pathlib import Path

import critgroups
from critgroups import cli, enumeration, graphs, jsonio, linalg, verify

MODULES = (critgroups, linalg, graphs, verify, enumeration, jsonio, cli)

TRACED = {
    linalg: (
        "minor_gcd_all", "minor_gcd_corner", "minor_gcd_profile", "smith_normal_form",
        "determinant", "chio_condense", "desnanot_jacobi_residual",
    ),
    graphs: ("validate_structure", "structure_matrix", "critical_group", "star_clique_reduction"),
    verify: (
        "verify_minor_properties", "verify_operation_theorems", "check_conjecture_minors",
        "check_conjecture_alpha", "fuzz_campaign",
    ),
    enumeration: ("enumerate_structures",),
    jsonio: ("save_graph", "save_structure", "load_graph", "load_structure"),
    cli: ("main",),
}

# Per-layer names of the metrics built from several functions.
GROUPS = {
    "jsonio.save_graph": "jsonio.save",
    "jsonio.save_structure": "jsonio.save",
    "jsonio.load_graph": "jsonio.load",
    "jsonio.load_structure": "jsonio.load",
}


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


# Functions whose inputs are hashed for distinct_ratio (distinct inputs / calls).
DISTINCT = ("linalg.minor_gcd_profile", "linalg.smith_normal_form", "graphs.validate_structure")


class Tracer:
    """Spans and counters of one traced pass; ``install`` before, ``uninstall`` after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.inputs: dict[str, set] = {}
        self.max_bits: dict[str, int] = {}
        self.counters = {"verify.checks": 0, "verify.checks_failed": 0, "verify.proven_failures": 0,
                         "enumeration.enumerate_structures.found": 0, "jsonio.bytes_written": 0}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, names in TRACED.items():
            for short in names:
                original = getattr(module, short)
                wrapper = self._wrap(f"{module.__name__.split('.')[-1]}.{short}", short, original)
                for mod in MODULES:
                    if mod.__dict__.get(short) is original:
                        self._patched.append((mod, short, original))
                        setattr(mod, short, wrapper)

    def uninstall(self) -> None:
        for mod, short, original in reversed(self._patched):
            setattr(mod, short, original)
        self._patched.clear()

    def _wrap(self, name: str, short: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.failed[name] = 0
        self.inputs[name] = set()
        stack = self._stack

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if name in DISTINCT:
                self.inputs[name].add(hash(tuple(tuple(a) if isinstance(a, list) else a for a in args)))
            if short == "smith_normal_form":
                self.max_bits[name] = max(self.max_bits.get(name, 0), _max_bits(args[0].entries))
            span = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            stack.append(span)
            self.span_start.append(time.perf_counter())
            self.span_end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                self.span_end[span] = time.perf_counter()
                stack.pop()
            self._observe(name, short, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, short: str, args, result) -> None:
        c = self.counters
        if short in ("verify_minor_properties", "verify_operation_theorems",
                     "check_conjecture_minors", "check_conjecture_alpha"):
            reports = result if isinstance(result, list) else [result]
            c["verify.checks"] += len(reports)
            for r in reports:
                if r.failed:
                    c["verify.checks_failed"] += 1
                    c["verify.proven_failures"] += r.property_id in verify.PROVEN_IDS
        elif short == "enumerate_structures":
            c["enumeration.enumerate_structures.found"] += len(result)
        elif short in ("save_graph", "save_structure"):
            c["jsonio.bytes_written"] += Path(args[0]).stat().st_size
        elif short == "star_clique_reduction":
            bits = max(_max_bits([result.structure.d]), _max_bits(result.graph.mult))
            self.max_bits[name] = max(self.max_bits.get(name, 0), bits)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            totals[self.names[self.span_name[i]]] += end[i] - start[i] - child[i]
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers keyed by their BENCHMARK.json names."""
        out: dict[str, float] = {}
        self_s = self.self_times()
        for name in self.names:
            group = GROUPS.get(name, name)
            out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + self.calls[name]
            out[f"{group}.self_s"] = out.get(f"{group}.self_s", 0.0) + self_s[name]
            if group != name:
                out[f"{group}.failed"] = out.get(f"{group}.failed", 0) + self.failed[name]
            if name in DISTINCT:
                calls = self.calls[name]
                out[f"{name}.distinct_ratio"] = len(self.inputs[name]) / calls if calls else 1.0
        out["linalg.smith_normal_form.max_input_bits"] = self.max_bits.get("linalg.smith_normal_form", 0)
        out["graphs.star_clique_reduction.max_output_bits"] = self.max_bits.get(
            "graphs.star_clique_reduction", 0)
        out.update(self.counters)
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                f.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                        f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
