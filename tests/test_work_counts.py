"""Each invariant is computed once per instance: call counts of the costly layers."""

from __future__ import annotations

import contextlib
import io
from functools import cached_property

import pytest

import critgroups
from critgroups import cli, enumeration, graphs, jsonio, linalg, verify
from critgroups.jsonio import fixture_path

MODULES = (critgroups, linalg, graphs, verify, enumeration, jsonio, cli)
COUNTED = ("validate_structure", "smith_normal_form", "star_clique_reduction", "_reduce", "_matrix",
           "_MinorTable", "_Instance")
# methods of the minor table whose calls are counted
METHODS = ("fold", "_batch")
# cached properties of an instance whose computations are counted
PROPERTIES = ("primitive",)
# classes whose constructions are counted: reports built, and matrices whose entries are checked
BUILT = (verify.PropertyReport, linalg.IntegerMatrix)


@pytest.fixture
def calls(monkeypatch) -> dict[str, int]:
    """Counts calls of COUNTED through every module attribute that holds them, and batched row sets.

    ``_reduce`` counts the reductions computed, through
    ``star_clique_reduction`` or by ``verify`` on a pair it has validated.
    ``_MinorTable`` counts the minor tables built: each one scans the
    minors of one matrix.  ``fold`` counts the sizes those tables fold,
    and ``_batch`` the row sets they evaluate in one batch.  ``_Instance``
    counts the (graph, structure) instances built, each of them validated
    once: a pair at the boundary, or a reduction's output, which the
    reduction validates.  ``primitive`` counts the primitive parts
    (h, L / h) an instance computes, each a content pass over L; a
    reduction hands its output one without computing it.  ``PropertyReport`` counts the reports built
    after import, which leaves out the shared reports without a witness,
    and ``IntegerMatrix`` the matrices built through the constructor that
    checks every entry.
    """
    counts = dict.fromkeys((*COUNTED, *METHODS, *PROPERTIES, *(cls.__name__ for cls in BUILT)), 0)
    for name in METHODS:

        def counting_method(table, *args, name=name, method=getattr(linalg._MinorTable, name)):
            counts[name] += 1
            return method(table, *args)

        monkeypatch.setattr(linalg._MinorTable, name, counting_method)
    for name in PROPERTIES:

        def counting_property(inst, name=name, compute=getattr(graphs._Instance, name).func):
            counts[name] += 1
            return compute(inst)

        prop = cached_property(counting_property)
        prop.__set_name__(graphs._Instance, name)
        monkeypatch.setattr(graphs._Instance, name, prop)
    for cls in BUILT:

        def counting_init(self, *args, name=cls.__name__, init=cls.__init__, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    for name in COUNTED:
        original = getattr(graphs, name, None) or getattr(linalg, name, None) or getattr(verify, name)

        def counting(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for module in MODULES:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


def test_verify_all_vertices_computes_each_invariant_once(calls):
    argv = ["verify", str(fixture_path("simple7.graph.json")),
            str(fixture_path("simple7.structure.json")), "--all-vertices"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert "summary: 130 pass, 0 fail, 0 not applicable" in out.getvalue()
    # one validation at the boundary plus the self-check of each of the 7
    # reductions, which the instance computes without validating L again;
    # one instance of the pair and one of each reduction's output; the
    # primitive part of L once (its content is 1, so it is L itself),
    # which every reduction reads, and none of an output, whose reduction
    # hands it its own; SNF(L) once, on that primitive part, which also
    # gives MINORFACTS_A and the operation family D_k(L), SNF(L') per
    # vertex, on the output's primitive part, which also gives D_k(L'),
    # and the SNFs of the two MINORFACTS_B submatrices of L, and one for
    # MINORFACTS_C: the D_k* of its corner submatrix come from the Smith
    # form of that submatrix condensed on its corner.  L is built once and
    # no L', which no check reads; nor is L with v last.  One minor
    # table of L is folded once per size, by the pivot scan, whose profile
    # both matrix checks read and which gives every vertex its D_k*.  The
    # batched row sets pin how far that scan runs before its GCDs reach 1.
    # No report fails, so none is built: each of the 130 is a shared one.
    # Every matrix is built from validated entries, so none is checked again
    assert calls == {
        "validate_structure": 8,
        "smith_normal_form": 11,
        "star_clique_reduction": 0,
        "_reduce": 7,
        "_matrix": 1,
        "_MinorTable": 1,
        "_Instance": 8,
        "fold": 7,
        "_batch": 92,
        "primitive": 1,
        "PropertyReport": 0,
        "IntegerMatrix": 0,
    }


def test_public_per_vertex_checks_share_one_instance(calls, simple7):
    """What ``verify --all-vertices`` does, through the public functions one call at a time."""
    g, s = simple7
    m = graphs.structure_matrix(g, s)
    reports = [*verify.verify_minor_properties(m), verify.check_conjecture_minors(m)]
    for v in range(g.n):
        reports += [*verify.verify_operation_theorems(g, s, v), verify.check_conjecture_alpha(g, s, v)]
    assert [r.status for r in reports].count("pass") == 130
    # the CLI's counts: structure_matrix builds the instance, which
    # validates once and builds L.  The matrix checks read its SNF(L) and
    # its pivot scan, since m is its L, and every vertex check reads the
    # same instance: one L, its primitive part and one SNF(L), and per
    # vertex one reduction, its self-check, the output's instance and its
    # SNF(L'), but no L'
    assert calls == {
        "validate_structure": 8,
        "smith_normal_form": 11,
        "star_clique_reduction": 0,
        "_reduce": 7,
        "_matrix": 1,
        "_MinorTable": 1,
        "_Instance": 8,
        "fold": 7,
        "_batch": 92,
        "primitive": 1,
        "PropertyReport": 0,
        "IntegerMatrix": 0,
    }


def test_fuzz_campaign_computes_each_invariant_once_per_case(calls):
    summary = verify.fuzz_campaign(verify.FuzzConfig(seed=0, case_count=100))
    assert summary.cases == 100
    assert summary.failure_count == 0
    # per case: the case matrix's table, shared by its two checks, its SNF
    # for MINORFACTS_A, the SNFs of its two MINORFACTS_B submatrices and
    # one SNF for MINORFACTS_C when its corner submatrix is at least 2 x 2:
    # of the submatrix condensed on its corner in the 58 such cases with a
    # nonzero corner, of its inner block in 3 of the 5 with a zero corner
    # (the other 2 need none).  The 100 structure cases draw 43
    # distinct pairs at 78 distinct (pair, vertex) draws, and the campaign
    # builds one instance per pair drawn: one validation, L, its primitive
    # part, SNF(L) and the table of L for the pivot scan; and per distinct
    # draw one reduction (self-check, the output's instance, SNF(L') on
    # its primitive part, no L'), which does not validate the instance's
    # pair again.  CONJ_MINORS reads D_k(L) from SNF(L) and D_k* from the
    # pivot scan, and builds L with v last only for the witness of a
    # failure: 43 + 78 validations and instances, and 43 matrices built.
    # Each of the 143 tables folds each of its sizes once.  None
    # of the 2,900 reports fails, so
    # none is built, and no matrix has its entries checked: the case
    # matrices come from ints the campaign draws, the others from entries
    # of matrices already built
    assert calls == {
        "validate_structure": 121,
        "smith_normal_form": 482,
        "star_clique_reduction": 0,
        "_reduce": 78,
        "_matrix": 43,
        "_MinorTable": 143,
        "_Instance": 121,
        "fold": 491,
        "_batch": 1531,
        "primitive": 43,
        "PropertyReport": 0,
        "IntegerMatrix": 0,
    }


def test_reduction_chain_validates_each_pair_once(calls, simple7):
    g, s = simple7
    k = 5
    for _ in range(k):
        graphs.critical_group(g, s)
        reduced = graphs.star_clique_reduction(g, s, g.n - 1)
        g, s = reduced.graph, reduced.structure
    graphs.critical_group(g, s)
    # k + 1 validations for k reductions: the first pair where the chain
    # starts, then each output once, by the reduction that made it; the
    # critical group and the next reduction of an output validate nothing.
    # One instance per pair: the first critical group builds the first, and
    # each reduction records its output as one, with the output's primitive
    # part read off its own small ints.  So the first pair alone builds L
    # and takes its content; every critical group takes the Smith form of
    # a primitive part, and a reduction builds no matrix
    assert calls == {
        "validate_structure": k + 1,
        "smith_normal_form": k + 1,
        "star_clique_reduction": k,
        "_reduce": k,
        "_matrix": 1,
        "_MinorTable": 0,
        "_Instance": k + 1,
        "fold": 0,
        "_batch": 0,
        "primitive": 1,
        "PropertyReport": 0,
        "IntegerMatrix": 0,
    }
