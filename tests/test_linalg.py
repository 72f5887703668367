"""Exact-linear-algebra tests.

The oracles here are deliberately naive: cofactor expansion for
determinants and a full scan over index subsets for minor GCDs.  The
library must agree with them on every input they can reach.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgroups.linalg as linalg
from critgroups.enumeration import EnumerationQuery, enumerate_structures
from critgroups.graphs import Multigraph, structure_matrix
from critgroups.linalg import (
    IntegerMatrix,
    MinorSpec,
    chio_condense,
    corner_divisors,
    desnanot_jacobi_residual,
    determinant,
    minor,
    minor_gcd_all,
    minor_gcd_corner,
    minor_gcd_profile,
    row_gcd,
    smith_normal_form,
)
from critgroups.verify import FuzzConfig, case_matrix

from conftest import cofactor_det

# ---------------------------------------------------------------------------
# oracles


def brute_minor_gcd(rows: list[list[int]], k: int, corner: bool = False) -> int:
    """GCD of the k x k minors by scanning every index pair."""
    if k == 0:
        return 1
    nr, nc = len(rows), len(rows[0])
    row_pool = range(nr - 1) if corner else range(nr)
    col_pool = range(nc - 1) if corner else range(nc)
    pick = k - 1 if corner else k
    g = 0
    for ri in combinations(row_pool, pick):
        rset = list(ri) + ([nr - 1] if corner else [])
        for ci in combinations(col_pool, pick):
            cset = list(ci) + ([nc - 1] if corner else [])
            g = gcd(g, cofactor_det([[rows[i][j] for j in cset] for i in rset]))
    return g


def random_rows(rng: random.Random, nr: int, nc: int, bound: int = 9) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]


def pivot_sequences(m: IntegerMatrix) -> tuple[tuple[int, ...], ...]:
    """Every index's D_k* of a square matrix, from a fresh minor table."""
    return linalg._MinorTable(m).pivot_scan()[1]


# the 3x3 example used for most frozen values; det is -3
M3 = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])

# structure matrix of the 4-vertex multigraph example, d = (8, 10, 4, 8)
L1 = IntegerMatrix.from_rows(
    [
        [8, -1, -1, 0],
        [-1, 10, -5, -2],
        [-1, -5, 4, -2],
        [0, -2, -2, 8],
    ]
)


@st.composite
def matrices(draw, min_dim=1, max_dim=5, bound=9, square=False):
    rows = draw(st.integers(min_dim, max_dim))
    cols = rows if square else draw(st.integers(min_dim, max_dim))
    entry = st.integers(-bound, bound)
    data = draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return IntegerMatrix.from_rows(data)


# ---------------------------------------------------------------------------
# matrix container


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntegerMatrix(())
    with pytest.raises(ValueError):
        IntegerMatrix(((),))
    with pytest.raises(ValueError):
        IntegerMatrix(((1, 2), (3,)))
    with pytest.raises(TypeError):
        IntegerMatrix(((1.5,),))


def test_matrix_rejects_bool_entries():
    with pytest.raises(TypeError, match="got bool"):
        IntegerMatrix(((True, 0), (0, 1)))
    # from_rows converts, so a bool read from elsewhere becomes an int
    assert IntegerMatrix.from_rows([[True, 0], [0, 1]]).entries == ((1, 0), (0, 1))


def test_from_rows_converts_only_without_loss():
    class Index:
        def __index__(self):
            return 10**40

    m = IntegerMatrix.from_rows([[True, Index()], [-3, 4]])
    assert m.entries == ((1, 10**40), (-3, 4))
    assert all(type(x) is int for row in m.entries for x in row)
    for bad in (2.5, 2.0, "3", Fraction(1)):
        with pytest.raises(TypeError):
            IntegerMatrix.from_rows([[1, bad], [3, 4]])


def test_matrix_accessors():
    m = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert not m.is_square
    assert m.row(1) == (4, 5, 6)
    assert m.column(2) == (3, 6)
    assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))
    assert m.submatrix([0, 1], [0, 2]).entries == ((1, 3), (4, 6))
    assert IntegerMatrix.identity(3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert str(m).splitlines() == ["[1 2 3]", "[4 5 6]"]


def test_submatrix_errors():
    m = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.submatrix([], [0])
    with pytest.raises(IndexError):
        m.submatrix([0, 2], [0])
    with pytest.raises(IndexError):
        m.submatrix([0], [-1])


def test_minor_spec_validation():
    spec = MinorSpec((0, 2), (1, 3))
    assert spec.size == 2
    with pytest.raises(ValueError):
        MinorSpec((0, 1), (0,))
    with pytest.raises(ValueError):
        MinorSpec((), ())
    with pytest.raises(ValueError):
        MinorSpec((1, 1), (0, 2))
    with pytest.raises(ValueError):
        MinorSpec((2, 0), (0, 2))
    with pytest.raises(IndexError):
        MinorSpec((-1, 0), (0, 1))


# ---------------------------------------------------------------------------
# determinants and minors


def test_determinant_frozen_values():
    assert determinant(M3) == -3
    assert determinant(L1) == 0
    assert determinant(IntegerMatrix.from_rows([[7]])) == 7
    assert determinant(IntegerMatrix.from_rows([[0, 1], [1, 0]])) == -1
    for n in range(1, 6):
        assert determinant(IntegerMatrix.identity(n)) == 1
    # Vandermonde at 1, 2, 3, 4: product of the differences is 12
    vandermonde = IntegerMatrix.from_rows(
        [[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]]
    )
    assert determinant(vandermonde) == 12
    # zero leading pivot forces the row-swap path of the elimination
    perm = IntegerMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert determinant(perm) == 1
    singular = IntegerMatrix.from_rows(
        [[0, 0, 1, 2], [0, 0, 2, 4], [1, 1, 1, 1], [2, 2, 2, 2]]
    )
    assert determinant(singular) == 0


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_determinant_matches_cofactor_oracle_seeded():
    rng = random.Random(42)
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = random_rows(rng, n, n)
        assert determinant(IntegerMatrix.from_rows(rows)) == cofactor_det(rows)


@given(matrices(min_dim=1, max_dim=5, square=True))
@settings(max_examples=80)
def test_determinant_matches_cofactor_oracle(m):
    assert determinant(m) == cofactor_det([list(r) for r in m.entries])


def test_determinant_is_exact_on_huge_entries():
    # far beyond float precision; the fraction-free elimination must not care
    big = 10**40
    m = IntegerMatrix.from_rows(
        [
            [big, big + 1, 3, 1],
            [1, big, big - 1, 0],
            [0, 2, big, 5],
            [7, 1, 2, big + 3],
        ]
    )
    assert determinant(m) == cofactor_det([list(r) for r in m.entries])


def test_minor_frozen_values():
    assert minor(M3, MinorSpec((0, 2), (1, 2))) == -4
    assert minor(M3, MinorSpec((0, 1, 2), (0, 1, 2))) == -3
    assert minor(L1, MinorSpec((0,), (0,))) == 8
    assert minor(L1, MinorSpec((1, 3), (2, 3))) == -44


def test_minor_bounds_check():
    with pytest.raises(IndexError):
        minor(M3, MinorSpec((0, 3), (0, 1)))
    with pytest.raises(IndexError):
        minor(M3, MinorSpec((0, 1), (0, 3)))


def test_row_gcd():
    assert row_gcd(L1, 3) == 2
    assert row_gcd(L1, 0) == 1
    assert row_gcd(IntegerMatrix.from_rows([[0, 0, 0]]), 0) == 0
    assert row_gcd(IntegerMatrix.from_rows([[6, -9, 15]]), 0) == 3
    with pytest.raises(IndexError):
        row_gcd(M3, 3)


# ---------------------------------------------------------------------------
# minor GCDs


def test_minor_gcd_frozen_values():
    assert [minor_gcd_all(L1, k) for k in range(5)] == [1, 1, 1, 24, 0]
    assert [minor_gcd_corner(L1, k) for k in range(1, 5)] == [8, 4, 24, 0]
    assert minor_gcd_all(M3, 0) == 1
    assert minor_gcd_all(M3, 3) == 3


def test_minor_gcd_range_checks():
    with pytest.raises(ValueError):
        minor_gcd_all(M3, -1)
    with pytest.raises(ValueError):
        minor_gcd_all(M3, 4)
    with pytest.raises(ValueError):
        minor_gcd_corner(M3, 0)
    with pytest.raises(ValueError):
        minor_gcd_corner(M3, 4)


def test_minor_gcd_matches_brute_force(monkeypatch):
    """Every D_k and D_k* through the public wrappers, against brute force at three caps.

    At the default cap every size of these matrices is stored.  At 225 the
    6 x 6 ones store sizes 1 and 2 and keep one row set at a time above;
    at 4 no size of a matrix with 3 or more rows and columns is stored.
    Scaling by c makes every k x k minor a multiple of c**k, so those scans
    run to the end.
    """
    rng = random.Random(7)
    cases = [random_rows(rng, rng.randint(1, 5), rng.randint(1, 5), bound=6) for _ in range(60)]
    cases += [[[c * x for x in row] for row in random_rows(rng, 6, 6, bound=6)] for c in (1, 1, 2, 3)]
    oracle = []
    for rows in cases:
        size = min(len(rows), len(rows[0]))
        oracle.append((IntegerMatrix.from_rows(rows), [brute_minor_gcd(rows, k) for k in range(size + 1)],
                       [brute_minor_gcd(rows, k, corner=True) for k in range(1, size + 1)]))
    for cap in (linalg._TABLE_CAP, 225, 4):
        monkeypatch.setattr(linalg, "_TABLE_CAP", cap)
        for m, dk, dk_star in oracle:
            assert [minor_gcd_all(m, k) for k in range(len(dk))] == dk, (cap, m.entries)
            assert [minor_gcd_corner(m, k) for k in range(1, len(dk))] == dk_star, (cap, m.entries)
        stored = [linalg._MinorTable(m).stored for m, _, _ in oracle[-4:]]
        assert stored == {linalg._TABLE_CAP: [6] * 4, 225: [2] * 4, 4: [0] * 4}[cap]


def test_minor_gcd_profile_matches_parts():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = IntegerMatrix.from_rows(random_rows(rng, nr, nc))
        prof = minor_gcd_profile(m)
        size = min(nr, nc)
        assert prof.dk == tuple(minor_gcd_all(m, k) for k in range(size + 1))
        assert prof.dk_star == tuple(minor_gcd_corner(m, k) for k in range(1, size + 1))
        assert prof.row_gcds == tuple(row_gcd(m, i) for i in range(nr))
        assert prof.col_gcds == tuple(row_gcd(m.transpose(), j) for j in range(nc))


def test_profile_frozen_for_example_matrix():
    prof = minor_gcd_profile(L1)
    assert prof.dk == (1, 1, 1, 24, 0)
    assert prof.dk_star == (8, 4, 24, 0)
    assert prof.row_gcds == (1, 1, 1, 2)
    assert prof.col_gcds == (1, 1, 1, 2)


def _complete_scan_cases():
    """(matrix, D_k, D_k*) triples whose D_k scans run to the end.

    Scaling by c makes every k x k minor a multiple of c**k, so no scan
    stops at GCD 1 and every size past the first is built by expansion.
    Structure matrices reach it at full size: their D_{n-1} > 1 needs a
    complete scan.  D_k does not depend on which vertex is last, so its
    oracle runs once per structure.
    """
    cases = []
    cfg = FuzzConfig(seed=0, matrix_dims=(3, 6))
    for index in range(40):
        factor = (2, 3, 6)[index % 3]
        rows = [[factor * x for x in row] for row in case_matrix(cfg, index).entries]
        size = min(len(rows), len(rows[0]))
        dk = tuple(brute_minor_gcd(rows, k) for k in range(size + 1))
        dk_star = tuple(brute_minor_gcd(rows, k, corner=True) for k in range(1, size + 1))
        cases.append((IntegerMatrix.from_rows(rows), dk, dk_star))
    for g in (Multigraph.path(5), Multigraph.cycle(5)):
        for s in enumerate_structures(EnumerationQuery(g, 8)):
            rows = [list(r) for r in structure_matrix(g, s).entries]
            dk = tuple(brute_minor_gcd(rows, k) for k in range(6))
            for v in range(5):
                m = structure_matrix(g, s, last_vertex=v)
                rows = [list(r) for r in m.entries]
                dk_star = tuple(brute_minor_gcd(rows, k, corner=True) for k in range(1, 6))
                cases.append((m, dk, dk_star))
    return cases


@pytest.fixture(scope="module")
def complete_scan_cases():
    return _complete_scan_cases()


def _count_batches(monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """The (size, row set) of every row set the tables evaluate in one batch, in order."""
    batched = []
    batch = linalg._MinorTable._batch

    def counting(self, k, ri):
        batched.append((k, ri))
        return batch(self, k, ri)

    monkeypatch.setattr(linalg._MinorTable, "_batch", counting)
    return batched


def test_profile_matches_oracle_on_complete_scans(complete_scan_cases, monkeypatch):
    batched = _count_batches(monkeypatch)
    for m, dk, dk_star in complete_scan_cases:
        prof = minor_gcd_profile(m)
        assert (prof.dk, prof.dk_star) == (dk, dk_star), m.entries
    assert batched


def test_profile_without_stored_sizes_keeps_one_row_set_per_size(complete_scan_cases, monkeypatch):
    # a cap of 4 stores no size of a matrix with at least 3 rows and columns,
    # which is the path every size past the stored ones of a large matrix takes
    monkeypatch.setattr(linalg, "_TABLE_CAP", 4)
    batched = _count_batches(monkeypatch)
    for m, dk, dk_star in complete_scan_cases:
        batched.clear()
        table = linalg._MinorTable(m)
        prof = table.profile()
        assert (prof.dk, prof.dk_star) == (dk, dk_star), m.entries
        assert {k for k, _ in batched} == set(range(2, table.size + 1)), m.entries
        assert all(len(store) <= 1 for store in table.stores[table.stored + 1 :]), m.entries


def _symmetric_rows(rng: random.Random, n: int, bound: int = 9) -> list[list[int]]:
    rows = random_rows(rng, n, n, bound)
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def _kept_column_sets(cols: int, ri: tuple[int, ...], symmetric: bool) -> list[tuple[int, ...]]:
    """The column sets whose minors a table keeps on row set ri, in its order.

    Size 1 is the matrix row.  Above it the order is descending
    lexicographic, and a symmetric matrix keeps only the column sets
    C >= ri, which come first in that order.
    """
    if len(ri) == 1:
        return [(c,) for c in range(cols)]
    return [ci for ci in reversed(list(combinations(range(cols), len(ri)))) if not symmetric or ci >= ri]


@pytest.mark.parametrize("cap", [linalg._TABLE_CAP, 225, 4])
def test_each_minor_equals_cofactor_expansion(cap, monkeypatch):
    """Every minor the table evaluates, signed, against cofactor expansion.

    GCD oracles cannot see an error that keeps the GCD, such as a wrong
    sign.  At the default cap every size of these matrices is stored; at
    a cap of 225 only sizes 1 and 2 of the 6 x 6 ones are, and at 4 no
    size of a matrix with 3 or more rows and columns is.  A size above the
    stored ones keeps one row set at a time, and the row sets are asked
    for in lexicographic order, as the fold asks.  A symmetric matrix of 5
    or more rows keeps, per row set R, only the minors on column sets
    C >= R, at every size above 1, and only those are ever expanded.
    """
    monkeypatch.setattr(linalg, "_TABLE_CAP", cap)
    rng = random.Random(5)
    cases = [random_rows(rng, nr, nc, bound=5) for nr, nc in ((3, 4), (4, 4), (5, 6), (6, 5), (6, 6))]
    cases += [_symmetric_rows(rng, n, bound=5) for n in (4, 5, 5, 6, 6)]
    for rows in cases:
        nr, nc = len(rows), len(rows[0])
        table = linalg._MinorTable(IntegerMatrix.from_rows(rows))
        assert table.symmetric == (rows == [list(col) for col in zip(*rows)] and nr >= 5)
        for k in range(1, table.size + 1):
            for ri in combinations(range(nr), k):
                kept = _kept_column_sets(nc, ri, table.symmetric)
                expected = [cofactor_det([[rows[i][j] for j in ci] for i in ri]) for ci in kept]
                assert list(table._row_set(k, ri)) == expected, (rows, k, ri)
    assert sum(linalg._MinorTable(IntegerMatrix.from_rows(rows)).symmetric for rows in cases) == 4


def _symmetric_scan_cases() -> list[list[list[int]]]:
    """Symmetric matrices that are not structure matrices, and each with one entry off its transpose.

    Scaling by c makes every k x k minor a multiple of c**k, so most scans
    run to the end; unscaled ones mostly stop at GCD 1.
    """
    rng = random.Random(23)
    cases = []
    for n in (1, 2, 3, 4, 5, 6):
        for c in (1, 2, 6):
            rows = [[c * x for x in row] for row in _symmetric_rows(rng, n, bound=5)]
            cases.append(rows)
            if n > 1:
                i, j = sorted(rng.sample(range(n), 2))
                off = [list(row) for row in rows]
                off[i][j] += c
                cases.append(off)
    return cases


@pytest.mark.parametrize("cap", [linalg._TABLE_CAP, 225, 4])
def test_symmetric_profiles_and_pivots_match_oracle(cap, monkeypatch):
    """Profile and pivots of symmetric matrices and their one-entry neighbours against brute force.

    At the default cap every size is stored, at 225 the 6 x 6 ones store
    sizes 1 and 2 and keep one row set at a time above, and at 4 no size
    of a matrix with 3 or more rows is stored.  The symmetric ones below 5
    rows keep every column set, as the neighbours do.
    """
    monkeypatch.setattr(linalg, "_TABLE_CAP", cap)
    cases = _symmetric_scan_cases()
    assert sum(linalg._MinorTable(IntegerMatrix.from_rows(rows)).symmetric for rows in cases) == 6
    for rows in cases:
        n = len(rows)
        m = IntegerMatrix.from_rows(rows)
        assert linalg._MinorTable(m).symmetric == (rows == [list(col) for col in zip(*rows)] and n >= 5)
        dk = tuple(brute_minor_gcd(rows, k) for k in range(n + 1))
        prof = minor_gcd_profile(m)
        assert prof.dk == dk, rows
        assert prof.dk_star == tuple(brute_minor_gcd(rows, k, corner=True) for k in range(1, n + 1)), rows
        assert pivot_sequences(m) == tuple(
            tuple(brute_minor_gcd(_move_last(rows, i), k, corner=True) for k in range(1, n + 1))
            for i in range(n)), rows


@pytest.mark.parametrize("n", [9, 10])
def test_complete_symmetric_scan_evaluates_each_minor_pair_once(n, monkeypatch):
    """A complete scan of the K_n Laplacian evaluates sum_k C(n,k)(C(n,k)+1)/2 minors.

    Its D_k = n^(k-1) and D_k* = n - 1, n, ... never reach 1 below D_n = 0,
    so the profile and the pivot scan visit every row set of every size.
    Each (size, row set) above 1 is batched once and evaluates the minors
    on the column sets C >= R, which the table stores; size 1 is the
    matrix itself, and its term counts the entries on and above the
    diagonal.
    """
    batched = _count_batches(monkeypatch)
    m = IntegerMatrix.from_rows([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)])
    table = linalg._MinorTable(m)
    assert table.symmetric and table.stored == n
    table.profile()
    table.pivot_scan()
    assert len(batched) == len(set(batched)) == sum(comb(n, k) for k in range(2, n + 1))
    evaluated = sum(len(minors) for store in table.stores[2:] for minors in store.values())
    assert n * (n + 1) // 2 + evaluated == sum(comb(n, k) * (comb(n, k) + 1) // 2 for k in range(1, n + 1))


def test_scans_past_the_stored_sizes_match_oracle(complete_scan_cases, monkeypatch):
    """A cap that stores sizes 1 and 2 of a 6 x 6 matrix but not size 3.

    Size 3 is then batched from the stored size 2, and each size from 3
    up keeps one row set at a time, the path every matrix of 11 or more
    rows and columns takes above its stored sizes.
    """
    monkeypatch.setattr(linalg, "_TABLE_CAP", 225)
    batched = _count_batches(monkeypatch)
    partial_cases = [case for case in complete_scan_cases if linalg._MinorTable(case[0]).stored == 2]
    assert partial_cases
    for m, dk, dk_star in partial_cases:
        prof = minor_gcd_profile(m)
        assert (prof.dk, prof.dk_star) == (dk, dk_star), m.entries
        if m.is_square:
            rows = [list(r) for r in m.entries]
            assert pivot_sequences(m) == tuple(
                tuple(brute_minor_gcd(_move_last(rows, i), k, corner=True) for k in range(1, m.rows + 1))
                for i in range(m.rows)), rows
    assert [k for k, _ in batched if k > 2]


def test_profile_evaluates_each_minor_once(simple7, monkeypatch):
    g, s = simple7
    m = structure_matrix(g, s)
    batched = _count_batches(monkeypatch)
    single = []
    det = linalg._minor_det

    def counting_det(entries, ri, ci):
        single.append((ri, ci))
        return det(entries, ri, ci)

    monkeypatch.setattr(linalg, "_minor_det", counting_det)
    table = linalg._MinorTable(m)
    assert table.stored == 7
    prof = table.profile()
    # D_6 > 1: both size-6 scans run to the end, so they meet on the corner row sets
    assert prof.dk[6] > 1
    assert batched
    assert len(batched) == len(set(batched))
    # the pivot scan reads the profile's row sets and batches only the rest
    profiled = len(batched)
    table.pivot_scan()
    assert len(batched) > profiled
    assert len(batched) == len(set(batched))
    # every size is stored, so no minor is evaluated on its own
    assert not single


@pytest.mark.parametrize("n", [9, 10, 11])
def test_complete_graph_laplacian_closed_forms(n):
    """D_k and every D_k* of the Laplacian of K_n, against closed forms that use no engine.

    L = nI - J has D_k = n^(k-1) below full size, as K(K_n) = (Z/n)^(n-2),
    and D_n = 0.  The minors whose rows and columns both contain index i
    give D_1* = n - 1 (the diagonal entry) and n^(k-1) above.  None of
    them reaches 1 below D_n = 0, so every scan runs to the end.  Every
    size of K_9 and K_10 is stored, so they reach the batched expansion at
    the largest stored sizes.  K_11 stores sizes 1 to 3 only, and each
    larger size keeps one row set at a time.
    """
    m = IntegerMatrix.from_rows([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)])
    table = linalg._MinorTable(m)
    assert table.stored == {9: 9, 10: 10, 11: 3}[n]
    dk = (1, *(n ** (k - 1) for k in range(1, n)), 0)
    star = (n - 1, *(n ** (k - 1) for k in range(2, n)), 0)
    prof = table.profile()
    assert (prof.dk, prof.dk_star) == (dk, star)
    assert table.pivot_scan()[1] == (star,) * n
    assert all(len(store) <= 1 for store in table.stores[table.stored + 1 :])
    assert pivot_sequences(m) == (star,) * n


def _move_last(rows: list[list[int]], i: int) -> list[list[int]]:
    order = [j for j in range(len(rows)) if j != i] + [i]
    return [[rows[a][b] for b in order] for a in order]


def _pivot_cases() -> list[list[list[int]]]:
    """Square matrices whose scans stop at GCD 1, run to the end, or hit D_k = 0."""
    rng = random.Random(13)
    cases = [random_rows(rng, n, n, bound=6) for n in (1, 2, 3, 4, 5) for _ in range(4)]
    cases += [[[c * x for x in row] for row in random_rows(rng, n, n, bound=4)]
              for n in (3, 4, 5) for c in (2, 6)]
    cases += [[[1, 2, 3], [2, 4, 6], [3, 6, 9]], [[0] * 4 for _ in range(4)]]
    for g in (Multigraph.path(5), Multigraph.cycle(5)):
        for s in list(enumerate_structures(EnumerationQuery(g, 8)))[::7]:
            cases.append([list(r) for r in structure_matrix(g, s).entries])
    return cases


def _brute_profile(rows: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(D_0..D_n, D_1*..D_n*) of a square matrix, by brute force."""
    n = len(rows)
    return (tuple(brute_minor_gcd(rows, k) for k in range(n + 1)),
            tuple(brute_minor_gcd(rows, k, corner=True) for k in range(1, n + 1)))


@pytest.mark.parametrize("cap", [linalg._TABLE_CAP, 4])
def test_pivot_sequences_match_oracle(cap, monkeypatch):
    """The pivot scan's sequences and profile against brute force and a fresh table's corner profile.

    A cap of 4 stores no size of a matrix with 3 or more rows and columns.
    The rank-1 and zero cases reach D_k = 0 before k = n, after which the
    scan folds the tracked GCDs alone.
    """
    monkeypatch.setattr(linalg, "_TABLE_CAP", cap)
    for rows in _pivot_cases():
        n = len(rows)
        m = IntegerMatrix.from_rows(rows)
        table = linalg._MinorTable(m)
        assert table.pivot_scan()[1] == tuple(
            tuple(brute_minor_gcd(_move_last(rows, i), k, corner=True) for k in range(1, n + 1))
            for i in range(n)
        ), rows
        assert table.profile().dk == tuple(brute_minor_gcd(rows, k) for k in range(n + 1)), rows
        profile, pivots = linalg._MinorTable(m).pivot_scan()
        assert pivots == table.pivot_scan()[1], rows
        assert profile == linalg._MinorTable(m).profile(), rows
        assert (profile.dk, profile.dk_star) == _brute_profile(rows), rows


def _structure_matrix_9x9() -> IntegerMatrix:
    """A seeded structure, r_max 3, on a 9-vertex multigraph: every size of its matrix is stored."""
    rng = random.Random(9)
    mult = {(i, rng.randrange(i)): rng.randint(1, 3) for i in range(1, 9)}
    for _ in range(3):
        i, j = sorted(rng.sample(range(9), 2), reverse=True)
        mult[i, j] = rng.randint(1, 3)
    g = Multigraph.from_edges(9, [(i, j, c) for (i, j), c in mult.items()])
    return structure_matrix(g, rng.choice(enumerate_structures(EnumerationQuery(g, 3))))


def test_shared_table_matches_fresh_unstored_tables(monkeypatch):
    """profile() and pivot_scan() of one table, in either order, and pivot_scan() alone, against fresh tables.

    A cap of 3 stores no size of a matrix with at least 2 rows and columns,
    so the fresh tables keep one row set per size at a time and reuse
    nothing another scan stored.  The pivot scan's profile must equal the
    fresh corner profile and, up to 5 x 5, brute force.
    """
    cases = [IntegerMatrix.from_rows(rows) for rows in _pivot_cases()]
    cases.append(_structure_matrix_9x9())
    assert linalg._MinorTable(cases[-1]).stored == 9
    shared = []
    for m in cases:
        profile_first, pivots_first = linalg._MinorTable(m), linalg._MinorTable(m)
        pivots = pivots_first.pivot_scan()[1]
        shared.append([(profile_first.profile(), profile_first.pivot_scan()[1]),
                       (pivots_first.profile(), pivots), linalg._MinorTable(m).pivot_scan()])
    monkeypatch.setattr(linalg, "_TABLE_CAP", 3)
    for m, results in zip(cases, shared):
        fresh = (linalg._MinorTable(m).profile(), pivot_sequences(m))
        assert results == [fresh, fresh, fresh], m.entries
        assert linalg._MinorTable(m).pivot_scan() == fresh, m.entries
        if m.rows <= 5:
            assert (fresh[0].dk, fresh[0].dk_star) == _brute_profile([list(r) for r in m.entries]), m.entries


def test_pivot_sequences_need_a_square_matrix():
    with pytest.raises(ValueError):
        pivot_sequences(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


# ---------------------------------------------------------------------------
# condensation identities


def test_chio_frozen_values():
    assert chio_condense(IntegerMatrix.from_rows([[1, 2], [3, 4]])).entries == ((-2,),)
    assert chio_condense(M3).entries == ((-11, -4), (-2, 2))
    assert determinant(chio_condense(M3)) == 10 ** (3 - 2) * determinant(M3)
    assert chio_condense(L1).entries == (
        (64, -8, -8),
        (-8, 76, -44),
        (-8, -44, 28),
    )


def test_chio_requires_square_at_least_2x2():
    with pytest.raises(ValueError):
        chio_condense(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        chio_condense(IntegerMatrix.from_rows([[5]]))


@given(matrices(min_dim=2, max_dim=5, square=True))
@settings(max_examples=80)
def test_chio_determinant_identity(m):
    n = m.rows
    corner = m.entries[n - 1][n - 1]
    assert determinant(chio_condense(m)) == corner ** (n - 2) * determinant(m)


def test_chio_identity_with_zero_corner():
    m = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 0]])
    # corner**(n-2) is 0 here, so the condensation must be singular
    assert determinant(chio_condense(m)) == 0


@given(matrices(min_dim=2, max_dim=5, square=True), st.data())
@settings(max_examples=80)
def test_desnanot_jacobi_residual_vanishes(m, data):
    n = m.rows
    i1 = data.draw(st.integers(0, n - 2))
    i2 = data.draw(st.integers(i1 + 1, n - 1))
    j1 = data.draw(st.integers(0, n - 2))
    j2 = data.draw(st.integers(j1 + 1, n - 1))
    assert desnanot_jacobi_residual(m, i1, i2, j1, j2) == 0


def test_desnanot_jacobi_index_checks():
    with pytest.raises(IndexError):
        desnanot_jacobi_residual(M3, 1, 1, 0, 2)
    with pytest.raises(IndexError):
        desnanot_jacobi_residual(M3, 0, 3, 0, 1)
    with pytest.raises(ValueError):
        desnanot_jacobi_residual(IntegerMatrix.from_rows([[1, 2], [3, 4], [5, 6]]), 0, 1, 0, 1)
    with pytest.raises(ValueError):
        desnanot_jacobi_residual(IntegerMatrix.from_rows([[3]]), 0, 1, 0, 1)


# ---------------------------------------------------------------------------
# Smith normal form


# Contents the Smith form tests multiply their matrices by: SNF(c M) = c SNF(M).
# The last two are far past a machine word.
SNF_SCALES = (1, 2, 6, 10**40, 2**64 * (2**61 - 1))


def scaled(rows, c: int) -> IntegerMatrix:
    return IntegerMatrix.from_rows([[c * x for x in row] for row in rows])


def test_snf_frozen_values():
    frozen = [
        (L1.entries, (1, 1, 24, 0)),
        ([[0]], (0,)),
        ([[-5]], (5,)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[0, 0], [0, 0], [0, 0]], (0, 0)),
        # classic: diag(2, 6, 12) is not in Smith form; its invariant factors are 2, 6, 12
        ([[6, 0, 0], [0, 2, 0], [0, 0, 12]], (2, 6, 12)),
    ]
    for c in SNF_SCALES:
        for rows, diag in frozen:
            res = smith_normal_form(scaled(rows, c))
            assert res.diag == tuple(c * x for x in diag), (rows, c)
            assert res.rank == len(diag) - diag.count(0), (rows, c)


def test_snf_of_wide_and_tall_matrices():
    for c in SNF_SCALES:
        assert smith_normal_form(scaled([[2, 4, 8]], c)).diag == (2 * c,)
        assert smith_normal_form(scaled([[3], [6], [9]], c)).diag == (3 * c,)


def _snf_oracle_cases() -> list[list[list[int]]]:
    """Seeded 1-6 x 1-6 matrices with entries in +-9: dense, with a zero row,
    with a zero column, of lower rank, and zero."""
    rng = random.Random(29)
    cases = []
    for nr in range(1, 7):
        for nc in range(1, 7):
            cases.append(random_rows(rng, nr, nc))
            rows = random_rows(rng, nr, nc)
            rows[rng.randrange(nr)] = [0] * nc
            cases.append(rows)
            rows = random_rows(rng, nr, nc)
            j = rng.randrange(nc)
            for row in rows:
                row[j] = 0
            cases.append(rows)
            # rank at most 1, or row 0 + row 1 as the last row
            u, v = random_rows(rng, 2, max(nr, nc), bound=3)
            cases.append([[u[i] * v[j] for j in range(nc)] for i in range(nr)])
            if nr >= 3:
                rows = random_rows(rng, nr, nc, bound=4)
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
                cases.append(rows)
            cases.append([[0] * nc for _ in range(nr)])
    return cases


def test_snf_of_scaled_matrices_matches_brute_force_minors():
    """Prefix products of SNF(c M) are c^k D_k(M), D_k from every k x k minor, and the rank is M's."""
    for rows in _snf_oracle_cases():
        size = min(len(rows), len(rows[0]))
        dk = [brute_minor_gcd(rows, k) for k in range(size + 1)]
        rank = max(k for k in range(size + 1) if dk[k])
        for c in SNF_SCALES:
            res = smith_normal_form(scaled(rows, c))
            assert [prod(res.diag[:k]) for k in range(size + 1)] == [c**k * d for k, d in enumerate(dk)], (rows, c)
            assert res.rank == rank, (rows, c)


@given(matrices(min_dim=1, max_dim=5), st.sampled_from(SNF_SCALES))
@settings(max_examples=100)
def test_snf_invariants(m, c):
    res = smith_normal_form(scaled(m.entries, c))
    size = min(m.rows, m.cols)
    assert len(res.diag) == size
    assert res.rank == sum(1 for x in res.diag if x != 0)
    assert all(x >= 0 for x in res.diag)
    for a, b in zip(res.diag, res.diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # the defining property: prefix products of the diagonal are the
    # determinantal divisors, those of c M being c^k D_k(M)
    for k in range(size + 1):
        assert prod(res.diag[:k]) == c**k * minor_gcd_all(m, k)


@given(matrices(min_dim=1, max_dim=4))
@settings(max_examples=60)
def test_snf_transpose_and_negation_invariance(m):
    reference = smith_normal_form(m).diag
    assert smith_normal_form(m.transpose()).diag == reference
    negated = IntegerMatrix.from_rows([[-x for x in row] for row in m.entries])
    assert smith_normal_form(negated).diag == reference


def test_snf_is_exact_on_huge_entries():
    big = 10**30
    m = IntegerMatrix.from_rows([[big, big + 2], [big - 2, big]])
    res = smith_normal_form(m)
    assert prod(res.diag[:1]) == minor_gcd_all(m, 1)
    assert prod(res.diag[:2]) == minor_gcd_all(m, 2)
    assert res.diag[0] * res.diag[1] == abs(determinant(m))


def fixpoint_fold(diag: list[int]) -> list[int]:
    """The gcd/lcm fold repeated until nothing changes: the oracle of the one-pass fold."""
    diag = list(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                g = gcd(a, b)
                if g != a:
                    diag[i], diag[j] = g, a * b // g
                    changed = True
    return diag


def test_one_pass_fold_equals_the_fixpoint():
    rng = random.Random(17)
    for _ in range(20_000):
        size = rng.randint(1, 7)
        bound = rng.choice((12, 360, 10**6))
        diag = [rng.randint(1, bound) for _ in range(size)]
        assert linalg._fold_divisibility(list(diag)) == fixpoint_fold(diag), diag
    for _ in range(200):
        diag = [prod(rng.choice((2, 3, 5, 7, 2**61 - 1)) for _ in range(rng.randint(0, 60)))
                for _ in range(rng.randint(2, 6))]
        assert linalg._fold_divisibility(list(diag)) == fixpoint_fold(diag), diag


# ---------------------------------------------------------------------------
# corner divisors from Smith forms


def test_corner_divisors_match_the_scan_on_fuzz_matrices():
    """Every case matrix of three seeded campaigns and its MINORFACTS_C submatrix."""
    zero_corners = 0
    for seed in range(3):
        cfg = FuzzConfig(seed=seed)
        for index in range(cfg.case_count):
            m = case_matrix(cfg, index)
            cases = [m]
            if m.rows >= 2 and m.cols >= 2:
                cases.append(m.submatrix(range(1, m.rows), range(1, m.cols)))
            for x in cases:
                assert corner_divisors(x) == minor_gcd_profile(x).dk_star, (seed, index, x)
            zero_corners += m.entries[-1][-1] == 0
    assert zero_corners >= 10


def test_corner_divisors_match_the_scan_on_structure_matrices():
    """L of every structure on P3..P7 and C3..C7 at r_max 8, and L with each vertex last."""
    cases = 0
    for n in range(3, 8):
        for g in (Multigraph.path(n), Multigraph.cycle(n)):
            for s in enumerate_structures(EnumerationQuery(g, 8)):
                m = structure_matrix(g, s)
                assert corner_divisors(m) == minor_gcd_profile(m).dk_star, s
                for v, star in enumerate(pivot_sequences(m)):
                    assert corner_divisors(structure_matrix(g, s, last_vertex=v)) == star, (s, v)
                cases += 1
    assert cases > 1000


@st.composite
def corner_cases(draw):
    """1..6 x 1..6 matrices with a zero corner, a zero last row or column, or rank at most 1."""
    m = draw(matrices(min_dim=1, max_dim=6))
    a = [list(row) for row in m.entries]
    form = draw(st.sampled_from(("zero corner", "zero last row", "zero last column", "rank <= 1")))
    if form == "zero corner":
        a[-1][-1] = 0
    elif form == "zero last row":
        a[-1] = [0] * m.cols
    elif form == "zero last column":
        for row in a:
            row[-1] = 0
    else:
        u = draw(st.lists(st.integers(-4, 4), min_size=m.rows, max_size=m.rows))
        a = [[x * y for y in a[0]] for x in u]
    return a


@given(corner_cases(), st.sampled_from((1, 10**40)))
@settings(max_examples=300)
def test_corner_divisors_match_the_scan_on_degenerate_corners(rows, c):
    m = scaled(rows, c)
    assert corner_divisors(m) == minor_gcd_profile(m).dk_star


def test_corner_divisors_frozen_values():
    assert corner_divisors(M3) == (10, 1, 3)
    assert corner_divisors(L1) == (8, 4, 24, 0)
    # zero corner: g_r = 3, g_c = 4
    assert corner_divisors(IntegerMatrix.from_rows([[7, 2, 4], [3, 6, 0]])) == (0, 12)
    assert corner_divisors(IntegerMatrix.from_rows([[-5]])) == (5,)


def test_corner_divisors_refuse_an_inexact_quotient(monkeypatch):
    """A Smith form of the condensation that is not one: D_2(C) = 1 is no multiple of the corner."""
    monkeypatch.setattr(linalg, "smith_normal_form", lambda m: linalg.SnfResult((1, 1), 2))
    with pytest.raises(ArithmeticError, match="not a multiple of 10"):
        corner_divisors(M3)
