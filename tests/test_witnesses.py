"""Failing-report witnesses of all 28 properties, replayed against golden values.

Each scenario runs the public checks on a real input while one seam
returns one entry made inconsistent: plus one or zero.  The seams are
``smith_normal_form``, the ``profile`` and ``pivot_scan`` methods of
``_MinorTable``, ``corner_divisors``, ``determinant`` and
``_desnanot_residual``.  The matrix family looks them up in
``critgroups.verify``; the operation family's instance, in
``critgroups.graphs``, looks ``smith_normal_form`` up in
``critgroups.linalg``.
The matrix family reads D_k(M) and D_k*(M) from the profile of its minor
table, MINORFACTS_B the D_k of each deletion submatrix from its Smith
form, which its ``snf(sub).diag`` scenarios reach, MINORFACTS_A the
D_k(M) it divides into D_k*(M) from SNF(M), which its ``snf(M).diag``
scenarios reach, and MINORFACTS_C the D_k* of its corner submatrix from
``corner_divisors``, which its ``corner_sequence`` scenarios reach.
MINORFACTS_D, CHIO and DESNANOT share one ``determinant`` of M, so the
``determinant(m)+1`` scenarios reach all three.  The operation family
reads D_k*(L with v last) from the pivot scan of L, the one scan of its
minor table, whose sequences its scenarios change; they keep the
``profile.dk_star`` label of that value.  It reads
D_k(L) from the diagonal of SNF(L) and D_k(L') from that of SNF(L'), so
its ``snf(L).diag`` scenarios reach THM_DKL_B..D as well, and its
``snf(L').diag`` scenarios THM_DKL_A..D.  Both Smith forms come from an
instance, L' from the one the reduction builds, which takes the form of
its primitive part, M / c with c the content of M, and multiplies the
diagonal by c: the seam sees SNF(L / c) and SNF(L' / c'), so a plus-one
change reads as +c on the diagonal.  The L' of ``nonsimple4a-v4`` has
c' = 4.  Every report -- status,
witness and ``degenerate`` flag -- must equal the one in
``tests/golden/witnesses.json``, so the first failing comparison of each
property keeps its k, its witness keys and its values.  To record the
file again (only when a witness change is intended), run
``python tests/test_witnesses.py`` with ``src`` and ``tests`` on the
path; it prints the scenarios it removes, changes and adds before it
writes the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import critgroups.graphs as graphs
import critgroups.linalg as linalg
import critgroups.verify as verify
from critgroups.graphs import ArithmeticalStructure, Multigraph, laplacian_structure
from critgroups.jsonio import encode_value
from critgroups.linalg import IntegerMatrix

from conftest import (
    NONSIMPLE_A_D,
    NONSIMPLE_A_R,
    NONSIMPLE_B_D,
    NONSIMPLE_B_R,
    NONSIMPLE_EDGES,
    SIMPLE7_D,
    SIMPLE7_EDGES,
    SIMPLE7_R,
    forget_memos,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "witnesses.json"

KINDS = {"plus1": lambda x: x + 1, "zero": lambda x: 0}

MATRICES = {
    "nonsimple4": [[8, -1, -1, 0], [-1, 10, -5, -2], [-1, -5, 4, -2], [0, -2, -2, 8]],
    "wide": [[2, 4, 6, 0], [3, -3, 9, 6], [0, 6, 12, 3]],
    "tall": [[4, 2, 0], [6, -2, 8], [2, 2, 2], [0, 4, 6]],
    "square3": [[2, 6, 4], [6, 3, 9], [4, 9, 6]],
    "square5": [
        [6, -2, 0, 0, -4],
        [-2, 6, -2, 0, 0],
        [0, -2, 6, -2, 0],
        [0, 0, -2, 6, -2],
        [-4, 0, 0, -2, 6],
    ],
}


def _instances():
    n4 = Multigraph.from_edges(4, NONSIMPLE_EDGES)
    s7 = Multigraph.from_edges(7, SIMPLE7_EDGES)
    c4 = Multigraph.cycle(4)
    return {
        "nonsimple4a-v4": (n4, ArithmeticalStructure(NONSIMPLE_A_D, NONSIMPLE_A_R), 3),
        "nonsimple4b-v1": (n4, ArithmeticalStructure(NONSIMPLE_B_D, NONSIMPLE_B_R), 0),
        "simple7-v3": (s7, ArithmeticalStructure(SIMPLE7_D, SIMPLE7_R), 2),
        "cycle4-v1": (c4, laplacian_structure(c4), 0),
    }


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, built through its constructor."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def _at(values, index, kind):
    values = list(values)
    if index < len(values):
        values[index] = KINDS[kind](values[index])
    return tuple(values)


def _matrix_changes(m: IntegerMatrix):
    """(label, seam, change) for the values the matrix family reads from its seams."""
    size = min(m.rows, m.cols)
    for i in range(size + 1):
        yield f"profile.dk[{i}]", "verify._MinorTable.profile", (
            lambda p, kind, m, i=i: replace(p, dk=_at(p.dk, i, kind)))
    for i in range(size):
        yield f"profile.dk_star[{i}]", "verify._MinorTable.profile", (
            lambda p, kind, m, i=i: replace(p, dk_star=_at(p.dk_star, i, kind)))
    # both deletion submatrices at once; the longer Smith diagonal sets the range
    for i in range(max(min(m.rows - 1, m.cols), min(m.rows, m.cols - 1))):
        yield f"snf(sub).diag[{i}]", "verify.smith_normal_form", (
            lambda r, kind, x, i=i, m=m: r if x == m else replace(r, diag=_at(r.diag, i, kind)))
    for i in range(size):
        yield f"snf(M).diag[{i}]", "verify.smith_normal_form", (
            lambda r, kind, x, i=i, m=m: r if x != m else replace(r, diag=_at(r.diag, i, kind)))
    yield "profile.row_gcds[-1]", "verify._MinorTable.profile", (
        lambda p, kind, m: replace(p, row_gcds=_at(p.row_gcds, m.rows - 1, kind)))
    yield "profile.col_gcds[-1]", "verify._MinorTable.profile", (
        lambda p, kind, m: replace(p, col_gcds=_at(p.col_gcds, m.cols - 1, kind)))
    for i in range(size):
        yield f"corner_sequence[{i}]", "verify.corner_divisors", (
            lambda s, kind, m, i=i: _at(s, i, kind))


def _operation_changes(n: int):
    for rows, label in ((n, "snf(L)"), (n - 1, "snf(L')")):
        for i in range(rows - 1):
            yield f"{label}.diag[{i}]", "linalg.smith_normal_form", (
                lambda r, kind, m, i=i, rows=rows: r if m.rows != rows
                else replace(r, diag=_at(r.diag, i, kind)))
    for i in range(n):
        yield f"profile.dk_star[{i}]", "linalg._MinorTable.pivot_scan", (
            lambda p, kind, m, i=i: (p[0], tuple(_at(star, i, kind) for star in p[1])))


def _seam(seam: str):
    """(owner, attribute name) of a seam ``module.name`` or ``module.Class.method``."""
    module, *path, name = seam.split(".")
    owner = {"verify": verify, "linalg": linalg}[module]
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _patched(seam: str, fake, run):
    """``run()`` while the seam is replaced by ``fake``, on fresh memos."""
    owner, name = _seam(seam)
    real = getattr(owner, name)
    forget_memos()
    setattr(owner, name, fake)
    try:
        return run()
    finally:
        setattr(owner, name, real)


def _changed(seam: str, change, kind: str):
    """The seam's real result, changed; a method's receiver (the minor table) stands in for m."""
    real = getattr(*_seam(seam))
    return lambda m, *rest: change(real(m, *rest), kind, m)


def _special_matrix_fakes(m: IntegerMatrix):
    """Determinant and Desnanot-Jacobi seams: one wrong value each."""
    real_det = verify.determinant
    real_res = verify._desnanot_residual
    yield "determinant(m)+1", "verify.determinant", lambda x: real_det(x) + (x == m)
    yield "determinant(chio)+1", "verify.determinant", lambda x: real_det(x) + (x != m)
    for ordinal in range(3):
        calls = []

        def residual(*args, ordinal=ordinal, calls=calls):
            calls.append(args)
            return real_res(*args) + 5 * (len(calls) == ordinal + 1)

        yield f"residual#{ordinal}", "verify._desnanot_residual", residual


def _reports_json(reports, payload: dict) -> list:
    """Reports as JSON; witness entries equal to the input read ``<input>``."""
    out = []
    for r in reports:
        head = f"{r.property_id.value} {r.status}" + (" degenerate" if r.degenerate else "")
        if r.witness is None:
            out.append(head)
            continue
        witness = {
            key: "<input>" if payload.get(key) == value else encode_value(value)
            for key, value in r.witness.items()
        }
        out.append([head, witness])
    return out


def scenarios():
    """(name, reports) for every scenario, in a fixed order."""
    for mname, rows in MATRICES.items():
        m = IntegerMatrix.from_rows(rows)

        def run(m=m):
            return _reports_json(
                [*verify.verify_minor_properties(m), verify.check_conjecture_minors(m)],
                {"matrix": [list(row) for row in m.entries]},
            )

        for label, seam, change in _matrix_changes(m):
            for kind in KINDS:
                yield f"{mname} {label} {kind}", _patched(seam, _changed(seam, change, kind), run)
        for label, seam, fake in _special_matrix_fakes(m):
            yield f"{mname} {label}", _patched(seam, fake, run)
    for iname, (g, s, v) in _instances().items():

        def run(g=g, s=s, v=v):
            payload = {"graph_mult": [list(row) for row in g.mult], "d": list(s.d), "r": list(s.r)}
            return _reports_json(
                [*verify.verify_operation_theorems(g, s, v), verify.check_conjecture_alpha(g, s, v)],
                {**payload, "vertex": v},
            )

        for label, seam, change in _operation_changes(g.n):
            for kind in KINDS:
                yield f"{iname} {label} {kind}", _patched(seam, _changed(seam, change, kind), run)


def test_witnesses_match_golden():
    golden = json.loads(GOLDEN.read_text())
    replayed = dict(scenarios())
    assert list(replayed) == list(golden)
    for name, reports in golden.items():
        assert replayed[name] == reports, name


def test_golden_covers_every_property():
    golden = json.loads(GOLDEN.read_text())
    failures = [r[0].split() for reports in golden.values() for r in reports if isinstance(r, list)]
    assert {head[0] for head in failures} == {p.value for p in verify.PropertyId}
    assert any("degenerate" in head for head in failures)
    # each instance fails every THM_DKL property in some scenario
    dkl = {f"THM_DKL_{x}" for x in "ABCD"}
    for iname in _instances():
        failed = {r[0].split()[0] for name, reports in golden.items() if name.startswith(f"{iname} ")
                  for r in reports if isinstance(r, list)}
        assert dkl <= failed, iname


def _faulted(prop, at: int):
    """``prop`` with comparison number ``at`` made to fail and every other one as it is."""

    def comparisons(x):
        for i, (ok, zero, names, values) in enumerate(prop.comparisons(x)):
            yield ok and i != at, zero, names, values

    return verify._Property(prop.pid, prop.applies, comparisons)


def test_a_fault_before_the_last_comparison_names_that_comparison():
    """The witness holds the failing comparison's values as they were when it was made.

    Each comparison's names and values are read as the property yields
    it; a later comparison (the next k) must not change the witness of
    an earlier one, which a witness built after the loop from values
    bound late would show.  Every property that makes more than one
    comparison on these inputs is covered.
    """
    facts = [verify._MatrixFacts(IntegerMatrix.from_rows(rows)) for rows in MATRICES.values()]
    records = [graphs._Instance(g, s).vertex(v) for g, s, v in _instances().values()]
    table = [(prop, x) for x in facts for prop in (*verify._MATRIX_PROPERTIES, verify._CONJ_MINORS)]
    table += [(prop, x) for x in records for prop in (*verify._OPERATION_PROPERTIES, verify._CONJ_ALPHA)]
    covered = set()
    for prop, x in table:
        if not prop.applies(x):
            continue
        assert not prop.report(x).failed, prop.pid
        made = [dict(zip(names, values)) for _, _, names, values in prop.comparisons(x)]
        for at in range(len(made) - 1):
            report = _faulted(prop, at).report(x)
            expected = {**x.payload, "property_id": prop.pid.value, **made[at]}
            assert report.failed and list(report.witness.items()) == list(expected.items()), (prop.pid, at)
            covered.add(prop.pid)
    single = {"MINORFACTS_D", "D1D2STAR", "CHIO", "COR_ORDER_A", "COR_ORDER_B", "COR_ORDER_C",
              *(f"PROP_ALPHA1_{x}" for x in "ABCDE")}
    assert {pid.value for pid in covered} == {pid.value for pid in verify.PropertyId} - single


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data = dict(scenarios())
    for verb, names in (("removed", [k for k in old if k not in data]),
                        ("changed", [k for k in data if k in old and data[k] != old[k]]),
                        ("added", [k for k in data if k not in old])):
        print(f"{verb} ({len(names)}):", *names, sep="\n  ")
    GOLDEN.write_text(json.dumps(data, separators=(",", ":")).replace('],"', '],\n"') + "\n")
