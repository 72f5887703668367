"""Property-checker tests: statuses, witnesses, shrinking, campaigns."""

from __future__ import annotations

import json
import pickle
import random
from pathlib import Path

import pytest

import critgroups.graphs as graphs
import critgroups.linalg as linalg
import critgroups.verify as verify
from critgroups.enumeration import EnumerationQuery, enumerate_structures
from critgroups.graphs import (
    ArithmeticalStructure,
    Multigraph,
    StructureError,
    laplacian_structure,
)
from critgroups.linalg import (
    IntegerMatrix,
    corner_divisors,
    determinant,
    minor_gcd_all,
    minor_gcd_corner,
    minor_gcd_profile,
)
from critgroups.verify import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    PROVEN_IDS,
    FuzzConfig,
    PropertyId,
    PropertyReport,
    case_matrix,
    check_conjecture_alpha,
    check_conjecture_minors,
    default_structure_queries,
    divides,
    fuzz_campaign,
    shrink_matrix_witness,
    verify_minor_properties,
    verify_operation_theorems,
)

from conftest import failing_property, forget_memos

L1 = IntegerMatrix.from_rows(
    [
        [8, -1, -1, 0],
        [-1, 10, -5, -2],
        [-1, -5, 4, -2],
        [0, -2, -2, 8],
    ]
)


def by_id(reports) -> dict[PropertyId, PropertyReport]:
    out = {r.property_id: r for r in reports}
    assert len(out) == len(reports), "duplicate property ids in one batch"
    return out


# ---------------------------------------------------------------------------
# conventions


def test_divides_zero_conventions():
    assert divides(0, 0)
    assert not divides(0, 5)
    assert divides(5, 0)
    assert divides(3, 6)
    assert divides(-3, 6)
    assert not divides(4, 6)


def test_proven_ids_exclude_the_conjectures():
    assert PropertyId.CONJ_ALPHA not in PROVEN_IDS
    assert PropertyId.CONJ_MINORS not in PROVEN_IDS
    assert len(PROVEN_IDS) == len(PropertyId) - 2
    assert PropertyReport(PropertyId.CHIO, FAIL, {"matrix": [[1]]}).failed
    assert not PropertyReport(PropertyId.CHIO, PASS).failed


def test_reports_without_a_witness_are_shared_values():
    """Passing and not-applicable reports are built once; each equals a fresh report of its fields."""
    shared = [report for pid in PropertyId
              for report in (verify._NOT_APPLICABLE[pid], *verify._PASSED[pid])]
    assert len(shared) == 3 * len(PropertyId)
    for report in shared:
        fresh = PropertyReport(report.property_id, report.status, report.witness, report.degenerate)
        assert report is not fresh and report == fresh and hash(report) == hash(fresh)
        assert pickle.loads(pickle.dumps(report)) == report
        assert report.witness is None
    assert {(r.status, r.degenerate) for r in shared} == {
        (NOT_APPLICABLE, False), (PASS, False), (PASS, True)}
    # the checks return them, degenerate or not, and not applicable for n < 3
    reports = [*verify_minor_properties(L1), *verify_minor_properties(IntegerMatrix.from_rows([[0, 0]])),
               *verify_operation_theorems(Multigraph.path(2), ArithmeticalStructure((1, 1), (1, 1)), 0)]
    assert {(r.status, r.degenerate) for r in reports} == {
        (NOT_APPLICABLE, False), (PASS, False), (PASS, True)}
    assert all(any(r is s for s in shared) for r in reports)


# ---------------------------------------------------------------------------
# matrix family


def test_matrix_family_passes_on_example():
    reports = by_id(verify_minor_properties(L1))
    assert len(reports) == 10
    assert all(r.status == PASS for r in reports.values())
    # the rank-3 matrix has D_4 = 0, so chains touching it are degenerate
    assert reports[PropertyId.MINORFACTS_A].degenerate
    assert reports[PropertyId.MINORFACTS_E].degenerate
    assert reports[PropertyId.GN_BOUND].degenerate
    # equality checks never involve a divisibility-by-zero reading
    assert not reports[PropertyId.MINORFACTS_D].degenerate
    assert not reports[PropertyId.CHIO].degenerate
    assert not reports[PropertyId.DESNANOT].degenerate


def test_matrix_family_on_single_entry():
    reports = by_id(verify_minor_properties(IntegerMatrix.from_rows([[5]])))
    expected_na = {
        PropertyId.MINORFACTS_B,
        PropertyId.MINORFACTS_C,
        PropertyId.DKSTAR_CHAIN,
        PropertyId.GN_BOUND,
        PropertyId.D1D2STAR,
        PropertyId.CHIO,
        PropertyId.DESNANOT,
    }
    for pid, rep in reports.items():
        assert rep.status == (NOT_APPLICABLE if pid in expected_na else PASS)


def test_matrix_family_on_single_row():
    reports = by_id(verify_minor_properties(IntegerMatrix.from_rows([[2, 4, 6]])))
    assert reports[PropertyId.MINORFACTS_B].status == PASS  # column deletion applies
    assert reports[PropertyId.MINORFACTS_C].status == NOT_APPLICABLE
    assert reports[PropertyId.MINORFACTS_D].status == NOT_APPLICABLE
    assert reports[PropertyId.CHIO].status == NOT_APPLICABLE
    assert reports[PropertyId.GN_BOUND].status == NOT_APPLICABLE


def test_matrix_family_tolerates_the_zero_matrix():
    reports = verify_minor_properties(IntegerMatrix.from_rows([[0, 0], [0, 0]]))
    assert all(r.status in (PASS, NOT_APPLICABLE) for r in reports)
    assert any(r.degenerate for r in reports)


def test_dkstar_chain_has_the_documented_range():
    # 3x3 with nontrivial corner data: D_2* | D_3* is the only chain link
    m = IntegerMatrix.from_rows([[2, 0, 4], [0, 6, 2], [4, 2, 8]])
    rep = by_id(verify_minor_properties(m))[PropertyId.DKSTAR_CHAIN]
    assert rep.status == PASS
    assert divides(minor_gcd_corner(m, 2), minor_gcd_corner(m, 3))


# ---------------------------------------------------------------------------
# operation family


def test_operation_family_passes_on_examples(simple7, nonsimple_a, nonsimple_b):
    for g, s in (simple7, nonsimple_a, nonsimple_b):
        for v in range(g.n):
            reports = verify_operation_theorems(g, s, v)
            assert len(reports) == 16
            assert not any(r.failed for r in reports), (s.d, v)


def test_cor_gcd1_requires_unit_row_gcd(simple7, nonsimple_a):
    g, s = nonsimple_a
    reports = by_id(verify_operation_theorems(g, s, 3))
    assert reports[PropertyId.COR_GCD1].status == NOT_APPLICABLE  # gcd of last row is 2
    g7, s7 = simple7
    reports7 = by_id(verify_operation_theorems(g7, s7, 6))
    assert reports7[PropertyId.COR_GCD1].status == PASS


def test_alphak_needs_at_least_four_vertices():
    g = Multigraph.cycle(3)
    reports = by_id(verify_operation_theorems(g, laplacian_structure(g), 0))
    for pid in (PropertyId.THM_ALPHAK_A, PropertyId.THM_ALPHAK_B, PropertyId.THM_ALPHAK_C):
        assert reports[pid].status == NOT_APPLICABLE
    assert reports[PropertyId.THM_DKL_A].status == PASS


def test_operation_family_below_three_vertices_is_na():
    g = Multigraph.path(2)
    reports = verify_operation_theorems(g, laplacian_structure(g), 0)
    assert len(reports) == 16
    assert all(r.status == NOT_APPLICABLE for r in reports)


def test_operation_family_input_checks(nonsimple_a):
    g, s = nonsimple_a
    with pytest.raises(IndexError, match=r"vertex 4 out of range 0\.\.3"):
        verify_operation_theorems(g, s, 4)
    for v in (True, False, 1.0):
        with pytest.raises(TypeError):
            verify_operation_theorems(g, s, v)
        with pytest.raises(TypeError):
            check_conjecture_alpha(g, s, v)
    bad = ArithmeticalStructure((1, 1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(StructureError):
        verify_operation_theorems(g, bad, 0)


def test_thm_dkl_a_frozen_equalities(nonsimple_a):
    from critgroups.graphs import star_clique_reduction, structure_matrix

    g, s = nonsimple_a
    reduced = star_clique_reduction(g, s, 3)
    l_prime = structure_matrix(reduced.graph, reduced.structure)
    l_full = structure_matrix(g, s, last_vertex=3)
    # k = 1: D_1(L') = D_2*(L); k = 2: D_2(L') = d_v * D_3*(L)
    assert minor_gcd_all(l_prime, 1) == minor_gcd_corner(l_full, 2) == 4
    assert minor_gcd_all(l_prime, 2) == 8 * minor_gcd_corner(l_full, 3) == 8 * 24


# ---------------------------------------------------------------------------
# shared inputs


def test_snf_does_not_depend_on_which_vertex_is_last(simple7):
    """Why one SNF(L) serves every vertex of an instance."""
    from critgroups.enumeration import enumerate_structures
    from critgroups.graphs import structure_matrix
    from critgroups.linalg import smith_normal_form

    queries = [*default_structure_queries(), EnumerationQuery(simple7[0], 3)]
    cases = 0
    for query in queries:
        for s in enumerate_structures(query):
            diag = smith_normal_form(structure_matrix(query.graph, s)).diag
            for v in range(query.graph.n):
                assert smith_normal_form(structure_matrix(query.graph, s, last_vertex=v)).diag == diag
                cases += 1
    assert cases > 500


def test_shared_values_equal_direct_calls(nonsimple_b):
    from critgroups.graphs import critical_group, star_clique_reduction, structure_matrix

    g, s = nonsimple_b
    inst = graphs.instance_of(g, s)
    # an equal pair built anew is the same instance, until another pair is asked for
    twin = (Multigraph(tuple(g.mult)), ArithmeticalStructure(tuple(s.d), tuple(s.r)))
    assert graphs.instance_of(*twin) is inst
    assert inst.group == critical_group(g, s)
    # what ``critgroup`` prints: D_k from SNF(L), D_k* from corner_divisors
    direct = minor_gcd_profile(structure_matrix(g, s))
    assert (inst.dk, corner_divisors(inst.matrix)) == (direct.dk, direct.dk_star)
    for v in range(g.n):
        record = inst.vertex(v)
        reduced = star_clique_reduction(g, s, v)
        l_v = structure_matrix(g, s, last_vertex=v)
        assert record.reduction == reduced
        assert record.reduced.matrix == structure_matrix(reduced.graph, reduced.structure)
        assert record.after == critical_group(reduced.graph, reduced.structure)
        direct = minor_gcd_profile(l_v)
        assert (record.dk, record.dk_star) == (direct.dk, direct.dk_star)
        assert record.dkp == minor_gcd_profile(record.reduced.matrix).dk
        assert inst.vertex(v) is record
    other = laplacian_structure(g)
    assert graphs.instance_of(g, other).structure == other


def random_multigraph_structures(seed: int, count: int) -> list[tuple[Multigraph, ArithmeticalStructure]]:
    """Seeded structures at r_max 4 on connected multigraphs with 3..7 vertices, multiplicities 1..3."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(3, 7)
        # a random spanning tree, then a few extra edges; a repeated pair gets a new multiplicity
        mult = {(i, rng.randrange(i)): rng.randint(1, 3) for i in range(1, n)}
        for _ in range(rng.randint(0, 3)):
            i, j = sorted(rng.sample(range(n), 2), reverse=True)
            mult[i, j] = rng.randint(1, 3)
        g = Multigraph.from_edges(n, [(i, j, m) for (i, j), m in mult.items()])
        structures = enumerate_structures(EnumerationQuery(g, 4))
        pairs.extend((g, s) for s in rng.sample(structures, min(3, len(structures))))
    return pairs[:count]


def weighted_structures(seed: int, count: int, sizes: tuple[int, int] = (3, 8)
                        ) -> list[tuple[Multigraph, ArithmeticalStructure]]:
    """Seeded structures with sizes[0]..sizes[1] vertices and r entries up to 3.

    A random connected pattern c (a spanning tree plus a few edges, c_ij
    in 1..2) gives mult_ij = c_ij r_i r_j, so d_i = sum_j c_ij r_j^2.
    """
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randint(*sizes)
        r = [rng.randint(1, 3) for _ in range(n)]
        r[rng.randrange(n)] = 1
        c = {(i, rng.randrange(i)): rng.randint(1, 2) for i in range(1, n)}
        for _ in range(rng.randint(0, 3)):
            i, j = sorted(rng.sample(range(n), 2), reverse=True)
            c[i, j] = rng.randint(1, 2)
        g = Multigraph.from_edges(n, [(i, j, m * r[i] * r[j]) for (i, j), m in c.items()])
        d = tuple(sum(g.mult[i][j] * r[j] for j in range(n)) // r[i] for i in range(n))
        pairs.append((g, ArithmeticalStructure(d, tuple(r))))
    return pairs


def test_conj_minors_from_the_pivot_scan_equals_the_scan_of_l_with_v_last(monkeypatch):
    """The inputs that the campaign's CONJ_MINORS reads, and its report, against the public path.

    The campaign reads D_k from the instance's SNF(L) and D_k* from its
    pivot scan of L; the oracle is the profile of L with v last, scanned in
    a table of its own, on which ``check_conjecture_minors`` reports.
    """
    from critgroups.graphs import structure_matrix

    seen = []
    real = verify._CONJ_MINORS
    monkeypatch.setattr(verify, "_CONJ_MINORS", verify._Property(
        PropertyId.CONJ_MINORS, real.applies, lambda x: seen.append(x) or real.comparisons(x)))
    pairs = [(g, s) for n in range(3, 8) for g in (Multigraph.path(n), Multigraph.cycle(n))
             for s in enumerate_structures(EnumerationQuery(g, 8))]
    pairs += weighted_structures(seed=12, count=120)
    cases = 0
    for g, s in pairs:
        inst = graphs._Instance(g, s)
        for v in range(g.n):
            seen.clear()
            shared = verify._vertex_minors_report(inst.vertex(v))
            m = structure_matrix(g, s, last_vertex=v)
            assert shared == check_conjecture_minors(m), (s, v)
            # minor_gcd_profile(m) without a second scan: the profile the check just read
            facts, public = seen
            direct = public.profile
            assert facts.m == m and (facts.dk, facts.dks) == (direct.dk, direct.dk_star), (s, v)
            cases += 1
    assert cases > 12000


def test_vertex_minors_report_builds_l_with_v_last_only_for_a_witness(monkeypatch, simple7):
    from critgroups.graphs import structure_matrix

    g, s = simple7
    record = graphs._Instance(g, s).vertex(2)
    assert verify._vertex_minors_report(record).status == PASS
    assert "matrix" not in vars(record)
    monkeypatch.setattr(verify, "_CONJ_MINORS", failing_property(PropertyId.CONJ_MINORS))
    report = verify._vertex_minors_report(record)
    assert report.witness["matrix"] == [list(row) for row in structure_matrix(g, s, last_vertex=2).entries]


def test_pivot_scan_past_the_stored_sizes_matches_the_smith_forms():
    """The pivot scan of an 11-vertex structure matrix against SNF(L) and every SNF(L').

    Its table stores sizes 1 to 3 only, and its invariant factors are not
    all 1, so the scans run far into the sizes that keep one row set at a
    time.  D_k(L), from the profile of the same table, is the product of
    the first k Smith factors.  L' at v is
    the condensation of L with v last on its corner d_v, so by Sylvester's
    identity each k x k minor of L' is d_v^(k-1) times the (k+1) x (k+1)
    minor of L through row and column v on the matching other indices:
    D_1* = d_v and D_{k+1}* = D_k(L') / d_v^(k-1).
    """
    from itertools import accumulate
    from operator import mul

    from critgroups.graphs import star_clique_reduction, structure_matrix
    from critgroups.linalg import _MinorTable, smith_normal_form

    ((g, s),) = weighted_structures(seed=0, count=1, sizes=(11, 11))
    m = structure_matrix(g, s)
    diag = smith_normal_form(m).diag
    assert diag[-4:] == (16, 48, 1488, 0)
    table = _MinorTable(m)
    assert table.stored == 3
    pivots = table.pivot_scan()[1]
    assert all(len(store) <= 1 for store in table.stores[table.stored + 1 :])
    assert table.profile().dk == tuple(accumulate(diag, mul, initial=1))
    for v, star in enumerate(pivots):
        dv = s.d[v]
        snf_p = smith_normal_form(star_clique_reduction(g, s, v).matrix()).diag
        dkp = tuple(accumulate(snf_p, mul, initial=1))
        assert star[0] == dv, v
        assert [star[k] * dv ** (k - 1) for k in range(1, g.n)] == list(dkp[1:]), v


def test_dkp_equals_the_minor_scan_of_the_reduced_matrix():
    """D_k(L') from SNF(L') against the scan of every k x k minor of L'."""
    pairs = [(g, s) for g in (Multigraph.path(5), Multigraph.cycle(5), Multigraph.cycle(6))
             for s in enumerate_structures(EnumerationQuery(g, 8))]
    pairs += random_multigraph_structures(seed=6, count=60)
    cases = 0
    for g, s in pairs:
        inst = graphs.instance_of(g, s)
        for v in range(g.n):
            record = inst.vertex(v)
            assert record.dkp == minor_gcd_profile(record.reduced.matrix).dk, (s, v)
            cases += 1
    assert cases > 3000


def test_minorfacts_b_submatrix_dk_equals_the_minor_scan():
    """D_k of each MINORFACTS_B deletion submatrix from its SNF against the scan of its minors."""
    from critgroups.graphs import structure_matrix
    from critgroups.linalg import smith_normal_form

    matrices = [case_matrix(FuzzConfig(seed=seed), index) for seed in range(3) for index in range(300)]
    matrices += [structure_matrix(g, s) for g in (Multigraph.path(5), Multigraph.cycle(5))
                 for s in enumerate_structures(EnumerationQuery(g, 8))]
    assert len(matrices) > 900
    for m in matrices:
        for sub in (m.submatrix(range(1, m.rows), range(m.cols)), m.submatrix(range(m.rows), range(1, m.cols))):
            assert verify._snf_dk(smith_normal_form(sub)) == minor_gcd_profile(sub).dk, sub.entries


def test_minorfacts_a_compares_the_smith_form_with_the_scan(monkeypatch):
    """MINORFACTS_A divides D_k from SNF(M) into D_k* from the scan, so a wrong value of either fails it.

    D_k and D_k* of one scan could not: the corner minors are among all the
    minors, so the first GCD always divides the second.
    """
    import critgroups.linalg as linalg

    m = IntegerMatrix.from_rows([[2, 4, 6], [6, 2, 4], [4, 6, 8]])
    assert by_id(verify_minor_properties(m))[PropertyId.MINORFACTS_A].status == PASS
    real_snf, real_batch = verify.smith_normal_form, linalg._MinorTable._batch

    def wrong_snf(x):
        snf = real_snf(x)
        return snf if x != m else linalg.SnfResult((snf.diag[0] + 1, *snf.diag[1:]), snf.rank)

    def wrong_corner_minors(table, k, ri):
        return [x + (ri[-1] == table.rows - 1) for x in real_batch(table, k, ri)]

    for seam, owner, name, fake in (("snf", verify, "smith_normal_form", wrong_snf),
                                    ("scan", linalg._MinorTable, "_batch", wrong_corner_minors)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fake)
            forget_memos()
            report = by_id(verify_minor_properties(m))[PropertyId.MINORFACTS_A]
        assert report.status == FAIL, seam


def test_operation_family_at_eleven_vertices():
    """A size the minor scan of L' cannot serve in this suite; the order identity is the oracle.

    For every vertex u of L', |K'| r'_u^2 = det(L' without row and column u),
    and |K'| = D_{n-2}(L').  The determinant is Bareiss elimination, which
    uses neither SNF nor a minor scan.
    """
    n = 11
    cycle = Multigraph.cycle(n)
    structures = enumerate_structures(EnumerationQuery(cycle, 4))
    for s in (laplacian_structure(cycle), random.Random(11).choice(structures)):
        for v in range(n):
            assert not any(r.failed for r in verify_operation_theorems(cycle, s, v)), (s, v)
            record = graphs.instance_of(cycle, s).vertex(v)
            assert record.dkp[n - 1] == 0
            reduced, r_p = record.reduced.matrix, record.reduction.structure.r
            for u in range(n - 1):
                rest = [i for i in range(n - 1) if i != u]
                assert record.dkp[n - 2] * r_p[u] ** 2 == determinant(reduced.submatrix(rest, rest))


def test_invalid_pairs_are_never_remembered(nonsimple_a):
    from critgroups.graphs import star_clique_reduction, structure_matrix

    g, s = nonsimple_a
    bad = ArithmeticalStructure((1, 1, 1, 1), (1, 1, 1, 1))
    graphs.instance_of(g, s)
    for _ in range(2):
        with pytest.raises(StructureError):
            graphs.instance_of(g, bad)
        with pytest.raises(StructureError):
            structure_matrix(g, bad)
        with pytest.raises(StructureError):
            star_clique_reduction(g, bad, 0)
        with pytest.raises(StructureError):
            check_conjecture_alpha(g, bad, 0)


def test_a_structure_of_another_length_is_a_structure_error():
    """Every entry point that builds an instance rejects a 2-entry structure on P3 with StructureError.

    ``validate_structure``, which takes bare vectors, keeps its ValueError.
    """
    from critgroups.graphs import critical_group, star_clique_reduction, structure_matrix, validate_structure

    g, short = Multigraph.path(3), ArithmeticalStructure((1, 1), (1, 1))
    calls = (lambda: critical_group(g, short), lambda: structure_matrix(g, short),
             lambda: star_clique_reduction(g, short, 0), lambda: verify_operation_theorems(g, short, 0),
             lambda: check_conjecture_alpha(g, short, 0))
    for call in calls:
        with pytest.raises(StructureError, match="^structure has 2 vertices but the graph has 3$"):
            call()
    with pytest.raises(ValueError, match="expected vectors of length 3, got d:2 r:2") as excinfo:
        validate_structure(g, short.d, short.r)
    assert excinfo.type is ValueError


def test_wrong_smith_rank_raises(nonsimple_a, monkeypatch):
    from critgroups.linalg import SnfResult

    g, s = nonsimple_a
    monkeypatch.setattr(linalg, "smith_normal_form", lambda m: SnfResult((1,) * m.rows, m.rows))
    with pytest.raises(ArithmeticError, match="Smith rank 4, expected 3"):
        verify_operation_theorems(g, s, 0)


# ---------------------------------------------------------------------------
# conjectures


def test_conjectures_pass_on_examples(simple7, nonsimple_a, nonsimple_b):
    for g, s in (simple7, nonsimple_a, nonsimple_b):
        for v in range(g.n):
            assert check_conjecture_alpha(g, s, v).status == PASS
    assert check_conjecture_minors(L1).status == PASS


def test_conjectures_not_applicable_on_tiny_inputs():
    g = Multigraph.path(2)
    assert check_conjecture_alpha(g, laplacian_structure(g), 1).status == NOT_APPLICABLE
    assert check_conjecture_minors(IntegerMatrix.from_rows([[7]])).status == NOT_APPLICABLE
    assert check_conjecture_minors(IntegerMatrix.from_rows([[1, 2, 3]])).status == NOT_APPLICABLE


# ---------------------------------------------------------------------------
# fuzz configuration and generators


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(matrix_dims=(0, 3))
    with pytest.raises(ValueError):
        FuzzConfig(matrix_dims=(4, 2))
    with pytest.raises(ValueError):
        FuzzConfig(entry_bound=0)
    with pytest.raises(ValueError):
        FuzzConfig(case_count=-1)
    with pytest.raises(ValueError):
        FuzzConfig(target="everything")
    for name in ("seed", "entry_bound", "case_count"):
        for value in (True, False, 1.5, 2.0, 2.5, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                FuzzConfig(**{name: value})
    for dims in ((2.0, 3), (2, 3.5), (True, 3), (1, True), ("2", 3)):
        with pytest.raises(ValueError, match="each matrix_dims entry must be an int"):
            FuzzConfig(matrix_dims=dims)
    for dims in (5, None, "23", (), (3,), (1, 2, 3)):
        with pytest.raises(ValueError, match="matrix_dims must be a pair"):
            FuzzConfig(matrix_dims=dims)
    query = EnumerationQuery(Multigraph.path(3), 4)
    for queries in ([1], (query, 1), (None,), 5, query, "abc"):
        with pytest.raises(ValueError, match="structure_queries must be None or a tuple"):
            FuzzConfig(structure_queries=queries)
    assert FuzzConfig(matrix_dims=[2, 4], structure_queries=[query]).structure_queries == [query]


def test_case_matrix_is_deterministic_and_bounded():
    cfg = FuzzConfig(seed=9, matrix_dims=(2, 6), entry_bound=9)
    for index in range(40):
        m = case_matrix(cfg, index)
        assert m == case_matrix(cfg, index)
        assert 2 <= m.rows <= 6 and 2 <= m.cols <= 6
        assert all(abs(x) <= 9 for row in m.entries for x in row)


def test_case_matrix_generator_kinds():
    cfg = FuzzConfig(seed=3)
    symmetric = case_matrix(cfg, 1)  # index 1 mod 4
    assert symmetric == symmetric.transpose()
    row_scaled = case_matrix(cfg, 2)
    assert all(x % 3 == 0 for x in row_scaled.entries[-1])
    col_scaled = case_matrix(cfg, 3)
    assert all(row[-1] % 3 == 0 for row in col_scaled.entries)


def test_case_matrix_differs_across_seeds():
    a = [case_matrix(FuzzConfig(seed=0), i) for i in range(8)]
    b = [case_matrix(FuzzConfig(seed=1), i) for i in range(8)]
    assert a != b


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_is_deterministic_and_clean():
    cfg = FuzzConfig(seed=1, case_count=40)
    first = fuzz_campaign(cfg)
    second = fuzz_campaign(cfg)
    assert first.cases == second.cases == 40
    assert first.tallies == second.tallies
    assert first.failures == [] and second.failures == []
    assert first.proven_failure_count == 0
    # with the default target every known property gets tallied
    assert set(first.tallies) == {pid.value for pid in PropertyId}


def reference_campaign(cfg: FuzzConfig) -> tuple[dict, list[PropertyReport]]:
    """Tallies and failures of ``cfg``'s campaign, each case built afresh from the public checks."""
    from critgroups.graphs import structure_matrix

    draws = [(q.graph, s, v) for q in cfg.structure_queries if q.graph.n >= 3
             for s in enumerate_structures(q) for v in range(q.graph.n)]
    tallies, failures = {}, []
    for index in range(cfg.case_count):
        m = case_matrix(cfg, index)
        reports = []
        if cfg.target in ("all", "theorems"):
            reports += verify_minor_properties(m)
        if cfg.target in ("all", "minors"):
            reports.append(check_conjecture_minors(m))
        if cfg.target != "minors":
            g, s, v = draws[random.Random(f"{cfg.seed}:{index}:instance").randrange(len(draws))]
            if cfg.target in ("all", "theorems"):
                reports += verify_operation_theorems(g, s, v)
            if cfg.target in ("all", "alpha"):
                reports.append(check_conjecture_alpha(g, s, v))
            if cfg.target == "all":
                reports.append(check_conjecture_minors(structure_matrix(g, s, last_vertex=v)))
        for r in reports:
            bucket = tallies.setdefault(r.property_id.value, {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0})
            bucket[r.status] += 1
            if r.failed:
                failures.append(verify._shrunk_failure(r))
    return tallies, failures


def battery() -> tuple[EnumerationQuery, ...]:
    from conftest import NONSIMPLE_EDGES

    return (EnumerationQuery(Multigraph.path(5), 8), EnumerationQuery(Multigraph.cycle(5), 8),
            EnumerationQuery(Multigraph.from_edges(4, NONSIMPLE_EDGES), 8))


def outcomes(failures) -> list[tuple]:
    return [(r.property_id, r.status, r.witness, r.degenerate) for r in failures]


@pytest.mark.parametrize("target", ["all", "theorems", "alpha"])
def test_campaign_equals_a_loop_over_the_public_checks(target):
    """Shared instances and CONJ_MINORS from the pivot scan report what case-by-case checks report."""
    for seed in range(3):
        cfg = FuzzConfig(seed=seed, case_count=300, structure_queries=battery(), target=target)
        summary = fuzz_campaign(cfg)
        tallies, failures = reference_campaign(cfg)
        assert summary.tallies == tallies, seed
        assert outcomes(summary.failures) == outcomes(failures), seed


def test_injected_failures_on_redrawn_pairs_equal_the_loop(monkeypatch):
    """Wrong values on 4 x 4 structure matrices fail each draw of a pair on the 4-vertex multigraph.

    Per family one value is wrong: the operation family reads 0 as the
    last-row gcd of L, and CONJ_MINORS reads D_1 + 1 on every matrix with
    4 rows, case matrices included.  The campaign keeps the instance of
    each pair it draws again; its failures equal those of the case-by-case
    loop, and two failures of one pair never share a witness object.
    """
    queries = battery()
    real_row_gcd, real_minors = linalg.row_gcd, verify._CONJ_MINORS

    def wrong_d1(x):
        if x.m.rows == 4:
            wrong = verify._MatrixFacts(x.m)
            wrong.dk, wrong.dks = (1, x.dk[1] + 1, *x.dk[2:]), x.dks
            x = wrong
        return real_minors.comparisons(x)

    monkeypatch.setattr(linalg, "row_gcd", lambda m, i: 0 if m.rows == 4 else real_row_gcd(m, i))
    monkeypatch.setattr(verify, "_CONJ_MINORS",
                        verify._Property(PropertyId.CONJ_MINORS, real_minors.applies, wrong_d1))
    for target in ("all", "theorems"):
        cfg = FuzzConfig(seed=0, case_count=300, structure_queries=queries, target=target)
        forget_memos()
        summary = fuzz_campaign(cfg)
        forget_memos()
        tallies, failures = reference_campaign(cfg)
        assert summary.tallies == tallies
        assert outcomes(summary.failures) == outcomes(failures)
        by_pair = {}
        for r in summary.failures:
            w = r.witness
            key = json.dumps(w.get("matrix_original", w.get("matrix")) or [w["d"], w["r"]])
            by_pair.setdefault((r.property_id, key), []).append(w)
        redrawn = [ws for ws in by_pair.values() if len(ws) > 1]
        assert len(redrawn) > 10
        assert any("matrix" in ws[0] for ws in redrawn) == (target == "all")
        for ws in redrawn:
            inner = [w.get("matrix", w.get("graph_mult")) for w in ws]
            assert len({id(w) for w in ws}) == len({id(x) for x in inner}) == len(ws)


def test_campaign_target_filters():
    assert set(fuzz_campaign(FuzzConfig(case_count=8, target="minors")).tallies) == {
        "CONJ_MINORS"
    }
    assert set(fuzz_campaign(FuzzConfig(case_count=8, target="alpha")).tallies) == {
        "CONJ_ALPHA"
    }
    theorem_ids = set(fuzz_campaign(FuzzConfig(case_count=8, target="theorems")).tallies)
    assert len(theorem_ids) == 26
    assert not any(pid.startswith("CONJ_") for pid in theorem_ids)


def test_campaign_with_zero_cases():
    summary = fuzz_campaign(FuzzConfig(case_count=0))
    assert summary.cases == 0
    assert summary.tallies == {}
    assert summary.failures == []


def test_campaign_skips_too_small_structure_queries():
    queries = (EnumerationQuery(Multigraph.path(2), 3),)
    summary = fuzz_campaign(FuzzConfig(case_count=6, target="alpha", structure_queries=queries))
    assert summary.tallies == {}  # no usable instances, no reports


def test_default_structure_queries_are_small_paths_and_cycles():
    queries = default_structure_queries()
    assert [q.graph.n for q in queries] == [3, 4, 3, 4]
    assert all(q.r_max == 6 for q in queries)


# ---------------------------------------------------------------------------
# witness shrinking


def test_shrinker_reaches_a_fixpoint_minimum():
    # predicate: total magnitude at least 5; the minimum is a single 5
    def still_fails(m: IntegerMatrix) -> bool:
        return sum(abs(x) for row in m.entries for x in row) >= 5

    start = IntegerMatrix.from_rows([[9, 9, 9], [9, 9, 9], [9, 9, 9]])
    small = shrink_matrix_witness(start, still_fails)
    assert small.entries == ((5,),)


def test_shrinker_respects_the_predicate():
    def still_fails(m: IntegerMatrix) -> bool:
        return m.entries[0][0] % 2 == 1

    start = IntegerMatrix.from_rows([[9, 4], [2, 7]])
    small = shrink_matrix_witness(start, still_fails)
    assert still_fails(small)
    assert small.rows == 1 and small.cols == 1
    # 9 only shrinks through even candidates, so it must survive as-is
    assert small.entries == ((9,),)


def test_shrinker_keeps_row_count_when_needed():
    def still_fails(m: IntegerMatrix) -> bool:
        return m.rows >= 2

    small = shrink_matrix_witness(IntegerMatrix.from_rows([[1, 2], [3, 4], [5, 6]]), still_fails)
    assert small.rows == 2 and small.cols == 1
    assert all(x == 0 for row in small.entries for x in row)


# ---------------------------------------------------------------------------
# injected-failure pipeline


def test_injected_failure_is_shrunk_and_archived(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_CONJ_MINORS", failing_property(PropertyId.CONJ_MINORS))
    cfg = FuzzConfig(seed=5, case_count=4, target="minors")
    summary = fuzz_campaign(cfg, archive_dir=tmp_path / "witnesses")
    monkeypatch.undo()

    assert summary.failure_count == 4
    assert summary.proven_failure_count == 0  # a conjecture, not a theorem
    assert len(summary.witness_paths) == 4
    for index, path_text in enumerate(summary.witness_paths):
        path = Path(path_text)
        assert path.exists()
        assert path.name == f"witness-5-{index:06d}-{index + 1:03d}-CONJ_MINORS.json"
        payload = json.loads(path.read_text())
        assert payload["property_id"] == "CONJ_MINORS"
        assert payload["status"] == FAIL
        assert payload["seed"] == 5 and payload["case_index"] == index
        # the always-failing check shrinks all the way down to [[0]]
        assert payload["witness"]["matrix"] == [[0]]
        original = IntegerMatrix.from_rows(payload["witness"]["matrix_original"])
        assert original == case_matrix(cfg, index)
        # the archived case is genuinely synthetic: the real check passes on it
        assert check_conjecture_minors(original).status == PASS


def test_injected_failure_witness_names_are_reproducible(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_CONJ_MINORS", failing_property(PropertyId.CONJ_MINORS))
    cfg = FuzzConfig(seed=2, case_count=2, target="minors")
    first = fuzz_campaign(cfg, archive_dir=tmp_path / "a")
    second = fuzz_campaign(cfg, archive_dir=tmp_path / "b")
    assert [Path(p).name for p in first.witness_paths] == [
        Path(p).name for p in second.witness_paths
    ]
    pairs = zip(first.witness_paths, second.witness_paths)
    assert all(Path(a).read_text() == Path(b).read_text() for a, b in pairs)


def test_shrinker_reruns_the_failing_row_not_the_public_checks(monkeypatch):
    rows = list(verify._MATRIX_PROPERTIES)
    rows[3] = failing_property(rows[3].pid)
    monkeypatch.setattr(verify, "_MATRIX_PROPERTIES", tuple(rows))
    cfg = FuzzConfig(seed=3, case_count=20)
    expected = fuzz_campaign(cfg).failures

    def public_check(m):
        raise AssertionError("the campaign re-ran a public check")

    monkeypatch.setattr(verify, "verify_minor_properties", public_check)
    monkeypatch.setattr(verify, "check_conjecture_minors", public_check)
    assert fuzz_campaign(cfg).failures == expected
    assert len(expected) == 20
    for index, report in enumerate(expected):
        assert report.property_id is rows[3].pid
        assert report.witness["matrix"] == [[0]]
        assert report.witness["matrix_original"] == [list(row) for row in case_matrix(cfg, index).entries]
