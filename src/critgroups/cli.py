"""Command-line interface.

Subcommands:

* ``critgroup``  -- invariant factors, group order, SNF diagonal and the
  D_k / D_k* profile of a structure (or of the plain Laplacian).
* ``apply-op``   -- star-clique reduction at a vertex; writes the reduced
  graph and structure as files and reports which order bound is attained.
* ``verify``     -- run every property check for one vertex or all of them.
* ``enumerate``  -- all structures with r entries up to a bound.
* ``fuzz``       -- seeded random campaign over matrices and structures.

Vertex numbers on the command line are 1-based, matching the file format.
Exit codes: 0 success (and all proven properties pass), 1 a proven
property failed, 2 unreadable or malformed input file, 3 invalid graph or
structure, 4 usage error (an output or witness file that cannot be written
included), 5 internal error (any other exception).  A falsified open
conjecture is reported and archived but does not fail the process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import jsonio
from .enumeration import EnumerationQuery, enumerate_structures
from .graphs import GraphError, StructureError, _Instance, laplacian_structure
from .jsonio import FileFormatError

# ``verify`` is imported inside the commands that run checks and the instance
# loads ``linalg`` on first use, so ``enumerate`` loads neither and
# ``critgroup`` and ``apply-op`` load no ``verify``.


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _load_instance(args):
    """The validated instance of the graph and structure named on the command line."""
    g = jsonio.load_graph(args.graph)
    if getattr(args, "laplacian", False):
        if getattr(args, "structure", None) is not None:
            raise _UsageError("give either a structure file or --laplacian, not both")
        s = laplacian_structure(g)
    else:
        if getattr(args, "structure", None) is None:
            raise _UsageError("a structure file (or --laplacian) is required")
        s = jsonio.load_structure(args.structure)
    return _Instance(g, s)


def _vertex_index(args, n: int) -> int:
    v = args.vertex
    if not 1 <= v <= n:
        raise _UsageError(f"vertex {v} out of range 1..{n}")
    return v - 1


def _seq(values) -> str:
    return ", ".join(str(x) for x in values)


def _emit_json(payload) -> None:
    print(json.dumps(jsonio.encode_value(payload), indent=2, sort_keys=True))


def cmd_critgroup(args) -> int:
    from .linalg import corner_divisors

    inst = _load_instance(args)
    g, s, cg, snf, dk = inst.graph, inst.structure, inst.group, inst.snf, inst.dk
    dk_star = corner_divisors(inst.matrix)
    if args.json:
        _emit_json(
            {
                "n": g.n,
                "d": list(s.d),
                "r": list(s.r),
                "invariant_factors": list(cg.invariant_factors),
                "critical_group": cg.describe(),
                "order": cg.order,
                "snf_diagonal": list(snf.diag),
                "dk": list(dk),
                "dk_star": list(dk_star),
                "matrix": jsonio.matrix_to_obj(inst.matrix),
            }
        )
        return 0
    print(f"graph: {g.n} vertices, {sum(m for _, _, m in g.edge_list())} edges")
    print(f"structure: d=({_seq(s.d)}) r=({_seq(s.r)})")
    print(f"invariant factors: {_seq(cg.invariant_factors)}")
    print(f"critical group: {cg.describe()}")
    print(f"group order: {cg.order}")
    print(f"snf diagonal: {_seq(snf.diag)}")
    print(f"D_k  (k=0..{len(dk) - 1}): {_seq(dk)}")
    print(f"D_k* (k=1..{len(dk_star)}): {_seq(dk_star)}")
    return 0


def cmd_apply_op(args) -> int:
    inst = _load_instance(args)
    g, s = inst.graph, inst.structure
    v = _vertex_index(args, g.n)
    if g.n < 2:
        raise _UsageError("the reduction needs at least two vertices")
    record = inst.vertex(v)
    before, after, result = inst.group, record.after, record.reduction
    graph_path = Path(f"{args.out}.graph.json")
    structure_path = Path(f"{args.out}.structure.json")
    try:
        jsonio.save_graph(graph_path, result.graph)
        jsonio.save_structure(structure_path, result.structure)
    except OSError as exc:
        raise _UsageError(f"cannot write {exc.filename}: {exc.strerror}") from None

    bound = None
    if g.n >= 3:
        lower, upper = record.lower, record.upper
        if after.order == lower:
            attained = "lower"
        elif after.order == upper:
            attained = "upper"
        else:
            attained = "interior"
        bound = {"lower": lower, "upper": upper, "attained": attained}

    if args.json:
        _emit_json(
            {
                "vertex": args.vertex,
                "r_divisor": result.r_divisor,
                "before": {
                    "n": g.n,
                    "order": before.order,
                    "invariant_factors": list(before.invariant_factors),
                },
                "after": {
                    "n": result.graph.n,
                    "order": after.order,
                    "invariant_factors": list(after.invariant_factors),
                },
                "order_bounds": bound,
                "graph_file": str(graph_path),
                "structure_file": str(structure_path),
            }
        )
        return 0
    print(f"input: {g.n} vertices, critical group {before.describe()} (order {before.order})")
    print(f"reduction at vertex {args.vertex}: d={s.d[v]}, r={s.r[v]}")
    print(f"r rescaled by {result.r_divisor}")
    print(
        f"output: {result.graph.n} vertices, critical group {after.describe()} "
        f"(order {after.order})"
    )
    print(f"wrote {graph_path}")
    print(f"wrote {structure_path}")
    if bound is None:
        print("order bounds: not defined below three vertices")
    elif bound["attained"] == "lower":
        print(f"lower bound achieved: {after.order}")
    elif bound["attained"] == "upper":
        print(f"upper bound achieved: {after.order} (lower was {bound['lower']})")
    else:
        print(
            f"strictly between bounds: {bound['lower']} < {after.order} < {bound['upper']}"
        )
    return 0


def _print_reports(reports, heading: str, json_bucket) -> None:
    from .verify import PROVEN_IDS

    if json_bucket is None:
        print(f"{heading}:")
        for rep in reports:
            print(f"  {rep.status:<15} {rep.property_id.value}")
            if rep.failed and rep.property_id not in PROVEN_IDS:
                print("    counterexample witness:")
                text = json.dumps(jsonio.encode_value(rep.witness), indent=2, sort_keys=True)
                for line in text.splitlines():
                    print("    " + line)
    else:
        json_bucket.extend(
            {
                "scope": heading,
                "property_id": rep.property_id.value,
                "status": rep.status,
                "degenerate": rep.degenerate,
                "witness": rep.witness,
            }
            for rep in reports
        )


def cmd_verify(args) -> int:
    from .verify import (
        FAIL,
        NOT_APPLICABLE,
        PASS,
        PROVEN_IDS,
        _CONJ_ALPHA,
        _CONJ_MINORS,
        _MATRIX_PROPERTIES,
        _OPERATION_PROPERTIES,
        _facts,
        _operation_reports,
    )

    inst = _load_instance(args)
    g = inst.graph
    if args.all_vertices:
        vertices = list(range(g.n))
    else:
        vertices = [_vertex_index(args, g.n)]
    json_bucket = [] if args.json else None
    all_reports = []

    facts = _facts(inst.matrix, inst)
    matrix_reports = [prop.report(facts) for prop in (*_MATRIX_PROPERTIES, _CONJ_MINORS)]
    all_reports.extend(matrix_reports)
    _print_reports(matrix_reports, "matrix checks on L", json_bucket)

    for v in vertices:
        reports = _operation_reports(inst, v, (*_OPERATION_PROPERTIES, _CONJ_ALPHA))
        all_reports.extend(reports)
        _print_reports(reports, f"reduction checks at vertex {v + 1}", json_bucket)

    passed = sum(1 for r in all_reports if r.status == PASS)
    failed = [r for r in all_reports if r.status == FAIL]
    not_applicable = sum(1 for r in all_reports if r.status == NOT_APPLICABLE)
    proven_failures = [r for r in failed if r.property_id in PROVEN_IDS]
    if json_bucket is not None:
        _emit_json(
            {
                "reports": json_bucket,
                "summary": {
                    "pass": passed,
                    "fail": len(failed),
                    "not_applicable": not_applicable,
                    "proven_failures": len(proven_failures),
                },
            }
        )
    else:
        print(
            f"summary: {passed} pass, {len(failed)} fail, {not_applicable} not applicable"
        )
        if failed and not proven_failures:
            print("note: only open-conjecture checks failed; witnesses above")
    return 1 if proven_failures else 0


def cmd_enumerate(args) -> int:
    g = jsonio.load_graph(args.graph)
    if args.rmax < 1:
        raise _UsageError(f"--rmax must be at least 1, got {args.rmax}")
    found = enumerate_structures(EnumerationQuery(g, args.rmax))
    if args.json:
        _emit_json(
            {
                "n": g.n,
                "r_max": args.rmax,
                "count": len(found),
                "complete_up_to_bound": True,
                "structures": [jsonio.structure_to_obj(s) for s in found],
            }
        )
        return 0
    print(f"graph: {g.n} vertices, {sum(m for _, _, m in g.edge_list())} edges")
    print(f"bound: r_max = {args.rmax} (exhaustive up to this bound only)")
    print(f"found {len(found)} structures")
    for s in found:
        print(f"  r=({_seq(s.r)})  d=({_seq(s.d)})")
    return 0


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise _UsageError(f"--dims expects the form A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"--dims expects integers, got {text!r}") from None
    return lo, hi


def cmd_fuzz(args) -> int:
    from .verify import FAIL, NOT_APPLICABLE, PASS, FuzzConfig, fuzz_campaign

    try:
        cfg = FuzzConfig(
            seed=args.seed,
            matrix_dims=_parse_dims(args.dims),
            entry_bound=args.bound,
            case_count=args.cases,
            target=args.target,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    try:
        summary = fuzz_campaign(cfg, archive_dir=args.archive_dir)
    except OSError as exc:  # only witness files are written
        raise _UsageError(f"cannot write {exc.filename}: {exc.strerror}") from None
    proven_failures = summary.proven_failure_count
    if args.json:
        _emit_json(
            {
                "seed": cfg.seed,
                "cases": summary.cases,
                "dims": list(cfg.matrix_dims),
                "bound": cfg.entry_bound,
                "target": cfg.target,
                "tallies": summary.tallies,
                "failures": summary.failure_count,
                "proven_failures": proven_failures,
                "witness_files": summary.witness_paths,
            }
        )
        return 1 if proven_failures else 0
    print(
        f"seed={cfg.seed} cases={summary.cases} dims={cfg.matrix_dims[0]}..{cfg.matrix_dims[1]} "
        f"bound={cfg.entry_bound} target={cfg.target}"
    )
    width = max((len(p) for p in summary.tallies), default=12)
    print(f"{'property'.ljust(width)}  {'pass':>8} {'fail':>8} {'n/a':>8}")
    for pid in sorted(summary.tallies):
        bucket = summary.tallies[pid]
        print(
            f"{pid.ljust(width)}  {bucket[PASS]:>8} {bucket[FAIL]:>8} "
            f"{bucket[NOT_APPLICABLE]:>8}"
        )
    total = sum(sum(b.values()) for b in summary.tallies.values())
    print(f"checks: {total} total, {summary.failure_count} failed")
    if summary.witness_paths:
        print("witness files:")
        for path in summary.witness_paths:
            print(f"  {path}")
    else:
        print("no witnesses written")
    return 1 if proven_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="critgroups", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("critgroup", help="critical group and minor-GCD profile")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("structure", nargs="?", help="structure JSON file")
    p.add_argument("--laplacian", action="store_true", help="use d = degrees, r = 1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_critgroup)

    p = sub.add_parser("apply-op", help="star-clique reduction at a vertex")
    p.add_argument("graph")
    p.add_argument("structure")
    p.add_argument("--vertex", type=int, required=True, help="1-based vertex")
    p.add_argument("--out", required=True, help="output file prefix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_apply_op)

    p = sub.add_parser("verify", help="run all property checks")
    p.add_argument("graph")
    p.add_argument("structure")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--vertex", type=int, help="1-based vertex")
    which.add_argument("--all-vertices", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="all structures with bounded r")
    p.add_argument("graph")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fuzz", help="seeded random property campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--dims", default="2..6", help="matrix dimension range A..B")
    p.add_argument("--bound", type=int, default=9, help="entry magnitude bound")
    p.add_argument(
        "--target",
        choices=("all", "minors", "alpha", "theorems"),
        default="all",
    )
    p.add_argument("--archive-dir", default=None, help="directory for witness files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # integers of any length: lift the int<->str digit limit (Python 3.11+) while the command runs
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help(sys.stderr)
            return 4
        return int(args.func(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except FileFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, StructureError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
