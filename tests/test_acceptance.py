"""End-to-end acceptance suite.

Each test prints exactly one `[acceptance] criterion N: PASS|FAIL` line
with capture suspended, so the verdicts are always visible in the test
log, and then asserts that nothing failed.  Criteria 5-7 share one
10,000-matrix seeded corpus, built once per module.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path

import pytest

import critgroups.verify as verify
from critgroups.enumeration import EnumerationQuery, enumerate_structures
from critgroups.graphs import (
    Multigraph,
    critical_group,
    star_clique_reduction,
    structure_matrix,
    validate_structure,
)
from critgroups.jsonio import fixture_path, load_graph, load_structure
from critgroups.linalg import (
    IntegerMatrix,
    determinant,
    minor_gcd_all,
    row_gcd,
    smith_normal_form,
)
from critgroups.verify import (
    FAIL,
    NOT_APPLICABLE,
    FuzzConfig,
    PropertyId,
    case_matrix,
    check_conjecture_alpha,
    check_conjecture_minors,
    fuzz_campaign,
    verify_minor_properties,
    verify_operation_theorems,
)

from conftest import cofactor_det, failing_property

CORPUS = FuzzConfig(seed=20260814, matrix_dims=(2, 6), entry_bound=9, case_count=10_000)


@pytest.fixture
def conclude(capsys):
    def _conclude(criterion: int, failures: list[str]) -> None:
        status = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance] criterion {criterion}: {status}", flush=True)
        assert not failures, (
            f"criterion {criterion}: {len(failures)} failures; first: {failures[:3]}"
        )

    return _conclude


@pytest.fixture(scope="module")
def corpus() -> list[IntegerMatrix]:
    return [case_matrix(CORPUS, index) for index in range(CORPUS.case_count)]


@pytest.fixture(scope="module")
def op_instances():
    """Every enumerated structure on the five reference graphs, at every vertex."""
    graphs = [
        Multigraph.path(3),
        Multigraph.path(4),
        Multigraph.cycle(3),
        Multigraph.cycle(4),
        load_graph(fixture_path("nonsimple4.graph.json")),
    ]
    instances = []
    for g in graphs:
        for s in enumerate_structures(EnumerationQuery(g, 6)):
            for v in range(g.n):
                instances.append((g, s, v))
    assert len(instances) > 100
    return instances


def test_criterion_1_simple_example_golden_values(conclude):
    failures: list[str] = []
    g = load_graph(fixture_path("simple7.graph.json"))
    s = load_structure(fixture_path("simple7.structure.json"))
    snf = smith_normal_form(structure_matrix(g, s))
    if snf.diag != (1, 1, 1, 1, 3, 3, 0):
        failures.append(f"SNF(L) = {snf.diag}")
    if critical_group(g, s).describe() != "Z/3 x Z/3":
        failures.append(f"K = {critical_group(g, s).describe()}")
    res = star_clique_reduction(g, s, 6)
    if res.structure.d != (9, 9, 3, 11, 5, 5):
        failures.append(f"d' = {res.structure.d}")
    if res.structure.r != (1, 1, 3, 1, 1, 1):
        failures.append(f"r' = {res.structure.r}")
    snf2 = smith_normal_form(structure_matrix(res.graph, res.structure))
    if snf2.diag != (1, 3, 3, 9, 9, 0):
        failures.append(f"SNF(L') = {snf2.diag}")
    after = critical_group(res.graph, res.structure)
    if after.describe() != "Z/3 x Z/3 x Z/9 x Z/9":
        failures.append(f"K' = {after.describe()}")
    conclude(1, failures)


def test_criterion_2_multigraph_first_structure(conclude):
    failures: list[str] = []
    g = load_graph(fixture_path("nonsimple4.graph.json"))
    s = load_structure(fixture_path("nonsimple4.structure-a.json"))
    snf = smith_normal_form(structure_matrix(g, s))
    if snf.diag != (1, 1, 24, 0):
        failures.append(f"SNF(L) = {snf.diag}")
    res = star_clique_reduction(g, s, 3)
    if res.structure.d != (64, 76, 28):
        failures.append(f"d' = {res.structure.d}")
    if res.structure.r != (1, 3, 5):
        failures.append(f"r' = {res.structure.r}")
    snf2 = smith_normal_form(structure_matrix(res.graph, res.structure))
    if snf2.diag != (4, 48, 0):
        failures.append(f"SNF(L') = {snf2.diag}")
    order = critical_group(res.graph, res.structure).order
    lower = s.d[3] ** (g.n - 3) * critical_group(g, s).order  # 8 * 24 = 192
    if not (order == lower == 192):
        failures.append(f"lower bound: order'={order}, bound={lower}")
    conclude(2, failures)


def test_criterion_3_multigraph_second_structure(conclude):
    failures: list[str] = []
    g = load_graph(fixture_path("nonsimple4.graph.json"))
    s = load_structure(fixture_path("nonsimple4.structure-b.json"))
    if (s.d, s.r) != ((2, 7, 7, 8), (2, 2, 2, 1)):
        failures.append(f"fixture carries {(s.d, s.r)}")
    snf = smith_normal_form(structure_matrix(g, s))
    if snf.diag != (1, 1, 24, 0):
        failures.append(f"SNF(L) = {snf.diag}")
    res = star_clique_reduction(g, s, 3)
    if res.structure.d != (16, 52, 52):
        failures.append(f"d' = {res.structure.d}")
    if res.structure.r != (1, 1, 1):
        failures.append(f"r' = {res.structure.r}")
    snf2 = smith_normal_form(structure_matrix(res.graph, res.structure))
    if snf2.diag != (4, 192, 0):
        failures.append(f"SNF(L') = {snf2.diag}")
    g_val = row_gcd(structure_matrix(g, s, last_vertex=3), g.n - 1)
    if g_val != 2:
        failures.append(f"g = {g_val}")
    order = critical_group(res.graph, res.structure).order
    upper = g_val**2 * s.d[3] ** (g.n - 3) * critical_group(g, s).order  # 4 * 8 * 24 = 768
    if not (order == upper == 768):
        failures.append(f"upper bound: order'={order}, bound={upper}")
    conclude(3, failures)


def test_criterion_4_theorem_suite_on_enumerated_structures(op_instances, conclude):
    failures: list[str] = []
    for g, s, v in op_instances:
        for report in verify_operation_theorems(g, s, v):
            if report.status == FAIL:
                failures.append(f"{report.property_id.value} at {(s.d, s.r, v)}")
            elif report.property_id is PropertyId.THM_DKL_A and report.status == NOT_APPLICABLE:
                failures.append(f"THM_DKL_A unexpectedly n/a at {(s.d, s.r, v)}")
    conclude(4, failures)


def test_criterion_5_matrix_property_suite(corpus, conclude):
    failures: list[str] = []
    for index, m in enumerate(corpus):
        for report in verify_minor_properties(m):
            if report.status == FAIL:
                failures.append(f"case {index}: {report.property_id.value}")
    conclude(5, failures)


def test_criterion_6_snf_cross_check(corpus, conclude):
    failures: list[str] = []
    for index, m in enumerate(corpus):
        res = smith_normal_form(m)
        for k in range(res.rank + 1):
            if prod(res.diag[:k]) != minor_gcd_all(m, k):
                failures.append(f"case {index}: prefix {k}")
        if m.is_square and m.rows <= 4:
            rows = [list(row) for row in m.entries]
            if determinant(m) != cofactor_det(rows):
                failures.append(f"case {index}: determinant")
    conclude(6, failures)


def test_criterion_7_conjecture_campaign(corpus, op_instances, tmp_path, monkeypatch, conclude):
    failures: list[str] = []
    for index, m in enumerate(corpus):
        if check_conjecture_minors(m).status == FAIL:
            failures.append(f"CONJ_MINORS on case {index}")
    for g, s, v in op_instances:
        if check_conjecture_alpha(g, s, v).status == FAIL:
            failures.append(f"CONJ_ALPHA at {(s.d, s.r, v)}")
        if check_conjecture_minors(structure_matrix(g, s, last_vertex=v)).status == FAIL:
            failures.append(f"CONJ_MINORS on L of {(s.d, s.r, v)}")

    # the witness pipeline must demonstrably archive an injected failure
    monkeypatch.setattr(verify, "_CONJ_MINORS", failing_property(PropertyId.CONJ_MINORS))
    cfg = FuzzConfig(seed=99, case_count=1, target="minors")
    summary = fuzz_campaign(cfg, archive_dir=tmp_path)
    monkeypatch.undo()
    if summary.failure_count != 1 or len(summary.witness_paths) != 1:
        failures.append(f"injected failure not archived: {summary.witness_paths}")
    else:
        payload = json.loads(Path(summary.witness_paths[0]).read_text())
        archived = IntegerMatrix.from_rows(payload["witness"]["matrix_original"])
        if archived != case_matrix(cfg, 0):
            failures.append("archived witness does not reproduce its case")
        if check_conjecture_minors(archived).status == FAIL:
            failures.append("injected failure was not synthetic after all")
    conclude(7, failures)


def test_criterion_8_enumeration_oracle(conclude):
    failures: list[str] = []
    single = enumerate_structures(EnumerationQuery(Multigraph(((0,),)), 4))
    if [(s.d, s.r) for s in single] != [((0,), (1,))]:
        failures.append(f"single vertex: {[(s.d, s.r) for s in single]}")
    p3 = enumerate_structures(EnumerationQuery(Multigraph.path(3), 3))
    if len(p3) != 2:
        failures.append(f"path3 count = {len(p3)}")
    c3 = enumerate_structures(EnumerationQuery(Multigraph.cycle(3), 6))
    if len(c3) != 10:
        failures.append(f"cycle3 count = {len(c3)}")
    for graph, found in (
        (Multigraph(((0,),)), single),
        (Multigraph.path(3), p3),
        (Multigraph.cycle(3), c3),
    ):
        for s in found:
            if validate_structure(graph, s.d, s.r) is not None:
                failures.append(f"emitted structure fails validation: {(s.d, s.r)}")
    conclude(8, failures)
