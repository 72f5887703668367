"""Divisibility properties of determinantal divisors, checked on concrete inputs.

Two families of checks live here.  The matrix family relates the
determinantal divisors D_k (GCDs of all k x k minors), their corner
variants D_k* (minors through the last row and column), single-row GCDs,
and the condensation identities; it applies to arbitrary integer
matrices.  The operation family compares a structure's invariant factors
and minor GCDs before and after the star-clique reduction at a chosen
vertex.

Every check returns :class:`PropertyReport` objects keyed by a stable
:class:`PropertyId`; reports never raise on a falsified property, they
carry a witness instead, so a fuzz campaign can archive counterexamples.
Two of the checks (`CONJ_ALPHA`, `CONJ_MINORS`) probe statements that are
open in general: for those a failing report would be a discovery, not a
bug.

Divisibility is taken with the usual zero conventions: every integer
divides 0, and 0 divides only 0.  Reports whose comparisons involved a
zero divisor value are flagged ``degenerate`` so they can be filtered
when studying the generic case.

The properties form one table of (id, applicability, comparisons) rows,
evaluated by :meth:`_Property.report`.  A check that passes costs its
comparisons and nothing more: each comparison carries a constant tuple
of names and a tuple of the values they name, and only the first failing
one is made into a witness dict.  Reports without a witness are
immutable and shared, one per (id, status, degenerate), built at import;
a check builds a report only when it fails.

The inputs of the checks are computed once: a (graph, structure) pair
becomes one validated ``graphs._Instance`` (L, SNF(L), the pivot scan of
L and, per vertex, the reduction and its output's instance).  The CLI
hands one to both families and a fuzz campaign keeps one per pair drawn.
The public checks share ``graphs.instance_of``'s last instance, and its
pivot scan and SNF(L) when their matrix is its L.

Determinantal divisors come from two engines.  Minor scans: one minor
table per matrix (``linalg._MinorTable``) evaluates each of its minors
at most once, and one scan folds it once per size.  Its profile gives
the matrix family D_k(M) and D_k*(M).  On L it is the instance's pivot
scan, which also gives the operation family every vertex's D_k*(L), so
``verify --all-vertices`` scans L once for both families.  Smith
forms: D_k is the product of the first k invariant factors, which gives
the operation family D_k(L) and D_k(L') from SNF(L) and SNF(L'), read
off L's instance and the one a reduction builds for L', MINORFACTS_B the
D_k of each deletion submatrix from its SNF, and MINORFACTS_A the D_k(M)
it divides into D_k*(M) from SNF(M).  D_k* of any matrix comes from one
Smith form too (``linalg.corner_divisors``), which gives MINORFACTS_C the
D_k* of its corner submatrix.  So
THM_DKL_A, which equates D_k(L') with m^(k-1) D_{k+1}*(L), and
MINORFACTS_A, B and C each compare a Smith form with a scan, and
THM_DKL_B..D the Smith forms of two matrices: a wrong value of either
engine breaks them.  (D_k and D_k* from one scan could not break
MINORFACTS_A, the corner minors being a subset of all the minors, and
the corner GCDs of M and of its corner submatrix from one table could
not break MINORFACTS_C, the submatrix's corner minors being corner
minors of M.)
The other matrix checks take D_k(M) from the scan; prefix products of
SNF(M) would make MINORFACTS_E hold by construction.  CONJ_MINORS on L
with v last, in a fuzz campaign, reads the instance's D_k(L) and pivot
scan: it is an open statement, not a comparison of two engines.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from enum import Enum
from functools import cache, cached_property, partial
from math import gcd

from . import graphs
from ._record import Record
from .enumeration import EnumerationQuery, enumerate_structures
from .graphs import ArithmeticalStructure, Multigraph, _Instance, _snf_dk, _Vertex, instance_of
from .linalg import (
    IntegerMatrix,
    MinorGcdProfile,
    SnfResult,
    _MinorTable,
    _desnanot_residual,
    _first_minor,
    chio_condense,
    corner_divisors,
    determinant,
    smith_normal_form,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


class PropertyId(str, Enum):
    """Stable identifiers for every property the verifier knows about."""

    # matrix family
    MINORFACTS_A = "MINORFACTS_A"  # D_k | D_k*
    MINORFACTS_B = "MINORFACTS_B"  # D_k | D_k of any submatrix
    MINORFACTS_C = "MINORFACTS_C"  # D_k* | D_k* of corner-preserving submatrices
    MINORFACTS_D = "MINORFACTS_D"  # square: D_n = D_n* = |det|
    MINORFACTS_E = "MINORFACTS_E"  # D_k | D_{k+1}
    DKSTAR_CHAIN = "DKSTAR_CHAIN"  # D_k* | D_{k+1}* for k >= 2
    GN_BOUND = "GN_BOUND"  # D_k* | (last col gcd)(last row gcd) D_k for k >= 2
    D1D2STAR = "D1D2STAR"  # D_1 D_2* | D_1* D_2
    CHIO = "CHIO"  # det of condensation = corner^(n-2) det
    DESNANOT = "DESNANOT"  # Desnanot-Jacobi residual vanishes
    # operation family (vertex v last, m = d[v], g = gcd of last row of L)
    THM_DKL_A = "THM_DKL_A"  # D_k(L') = m^(k-1) D_{k+1}*(L)
    THM_DKL_B = "THM_DKL_B"  # m^(k-1) D_{k+1}(L) | D_k(L')
    THM_DKL_C = "THM_DKL_C"  # D_k(L') | g^2 m^(k-1) D_{k+1}(L)
    THM_DKL_D = "THM_DKL_D"  # the two-sided size bound implied by B and C
    COR_ORDER_A = "COR_ORDER_A"  # m^(n-3) |K| divides |K'|
    COR_ORDER_B = "COR_ORDER_B"  # |K'| divides g^2 m^(n-3) |K|
    COR_ORDER_C = "COR_ORDER_C"  # the order bounds as inequalities
    PROP_ALPHA1_A = "PROP_ALPHA1_A"  # a'_1 | g^2 a_1 a_2
    PROP_ALPHA1_B = "PROP_ALPHA1_B"  # a'_1 | m a_2
    PROP_ALPHA1_C = "PROP_ALPHA1_C"  # a'_1 | gcd(g^2 a_1, m) a_2
    PROP_ALPHA1_D = "PROP_ALPHA1_D"  # a_1 a_2 | a'_1
    PROP_ALPHA1_E = "PROP_ALPHA1_E"  # a_1 a_2 <= a'_1 <= gcd(g^2 a_1, m) a_2
    THM_ALPHAK_A = "THM_ALPHAK_A"  # a'_k | g^2 m a_{k+1} for 2 <= k <= n-2
    THM_ALPHAK_B = "THM_ALPHAK_B"  # m a_{k+1} | g^2 a'_k
    THM_ALPHAK_C = "THM_ALPHAK_C"  # m a_{k+1} / g^2 <= a'_k <= g^2 m a_{k+1}
    COR_GCD1 = "COR_GCD1"  # g = 1 forces a'_1 = a_2 and a'_k = m a_{k+1}
    # open statements
    CONJ_ALPHA = "CONJ_ALPHA"  # a'_k | m a_{k+1} for all k
    CONJ_MINORS = "CONJ_MINORS"  # D_k D_{k+1}* | D_k* D_{k+1} for all k


PROVEN_IDS = frozenset(p for p in PropertyId if not p.value.startswith("CONJ_"))
# each id's text, which Enum's ``value`` descriptor returns far more slowly
_ID_TEXT = {p: p.value for p in PropertyId}


class PropertyReport(Record):
    """Outcome of one property check on one input.

    A failing report always carries a witness with the full input and the
    values involved, sufficient to rerun the same check deterministically.
    ``degenerate`` marks comparisons that ran into a zero divisor value.
    """

    __slots__ = ("property_id", "status", "witness", "degenerate")

    def __init__(self, property_id: PropertyId, status: str, witness: dict | None = None,
                 degenerate: bool = False) -> None:
        object.__setattr__(self, "property_id", property_id)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "degenerate", degenerate)

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def divides(a: int, b: int) -> bool:
    """a | b with the zero conventions: x | 0 for all x, 0 | y only for y = 0."""
    if a == 0:
        return b == 0
    return b % a == 0


# ---------------------------------------------------------------------------
# shared inputs


class _MatrixFacts:
    """What the matrix family compares on one matrix.

    ``dk`` and ``dks`` come from the profile of the minor table of m
    unless the caller gives them; the caller may give the profile too.
    ``snf_dk``, the D_k that MINORFACTS_A divides into D_k*, comes from
    SNF(m), which the caller may give as ``snf``.
    """

    def __init__(self, m: IntegerMatrix, dk: tuple[int, ...] | None = None,
                 dks: tuple[int, ...] | None = None, snf: SnfResult | None = None,
                 profile: MinorGcdProfile | None = None) -> None:
        self.m = m
        self.size = min(m.rows, m.cols)
        if profile is not None:
            self.profile = profile  # fills the cached property
        if dk is None:
            dk, dks = self.profile.dk, self.profile.dk_star
        self.dk, self.dks = dk, dks
        self.snf = snf

    @property
    def payload(self) -> dict:
        return {"matrix": [list(row) for row in self.m.entries]}

    @cached_property
    def det(self) -> int:
        return determinant(self.m)

    @cached_property
    def profile(self) -> MinorGcdProfile:
        return _MinorTable(self.m).profile()

    @cached_property
    def snf_dk(self) -> tuple[int, ...]:
        return _snf_dk(smith_normal_form(self.m) if self.snf is None else self.snf)


# ---------------------------------------------------------------------------
# the property table


# (ok, degenerate, names, values): what a comparison yields to _Property.report
_Comparison = tuple[bool, bool, tuple[str, ...], tuple]


def _divides(a: int, b: int, names: tuple[str, ...], values: tuple) -> _Comparison:
    """The comparison a | b; a zero on either side marks the report degenerate."""
    return divides(a, b), a == 0 or b == 0, names, values


def _holds(ok: bool, names: tuple[str, ...], values: tuple) -> _Comparison:
    return ok, False, names, values


# the reports without a witness, built once: they are immutable, so every check returns these
_NOT_APPLICABLE = {pid: PropertyReport(pid, NOT_APPLICABLE) for pid in PropertyId}
_PASSED = {pid: (PropertyReport(pid, PASS), PropertyReport(pid, PASS, None, True)) for pid in PropertyId}


class _Property(Record):
    """One table row: when the property applies, and the comparisons it makes.

    ``comparisons(x)`` yields (ok, degenerate, names, values) in a fixed
    order; ``names`` is a constant tuple and ``values`` holds the values it
    names, taken when the comparison is made.  Every comparison counts
    toward ``degenerate``.  The report fails on the first comparison that
    is not ok, and only then is a witness built: the input, the property
    id, then that comparison's names and values, in order.  A report that
    does not fail is one of the shared reports without a witness.
    """

    __slots__ = ("pid", "applies", "comparisons")

    def __init__(self, pid: PropertyId, applies: Callable[[object], bool],
                 comparisons: Callable[[object], Iterable[_Comparison]]) -> None:
        self._set(pid, applies, comparisons)

    def report(self, x) -> PropertyReport:
        pid = self.pid
        if not self.applies(x):
            return _NOT_APPLICABLE[pid]
        failure = None
        degenerate = False
        for ok, zero, names, values in self.comparisons(x):
            degenerate = degenerate or zero
            if not ok and failure is None:
                failure = names, values
        if failure is None:
            return _PASSED[pid][degenerate]
        witness = {**x.payload, "property_id": pid.value}
        witness.update(zip(*failure))
        return PropertyReport(pid, FAIL, witness, degenerate)


def _always(x) -> bool:
    return True


def _deletion_comparisons(x: _MatrixFacts):
    """MINORFACTS_B on the submatrices without the first row and without the first column.

    D_k of M comes from the minor scan, D_k of each submatrix from its Smith form.
    """
    m = x.m
    subs = []
    if m.rows >= 2:
        subs.append(m.submatrix(range(1, m.rows), range(m.cols)))
    if m.cols >= 2:
        subs.append(m.submatrix(range(m.rows), range(1, m.cols)))
    for which, sub in enumerate(subs):
        sub_dk = _snf_dk(smith_normal_form(sub))
        for k in range(1, min(sub.rows, sub.cols) + 1):
            yield _divides(x.dk[k], sub_dk[k], ("submatrix", "k", "dk", "sub_dk"),
                           (which, k, x.dk[k], sub_dk[k]))


def _corner_comparisons(x: _MatrixFacts):
    """MINORFACTS_C on the submatrix without the first row and column.

    D_k* of M comes from the minor scan, D_k* of the submatrix from Smith forms.
    """
    sub = x.m.submatrix(range(1, x.m.rows), range(1, x.m.cols))
    for k, sub_star in enumerate(corner_divisors(sub), start=1):
        yield _divides(x.dks[k - 1], sub_star, ("k", "dk_star", "sub_dk_star"), (k, x.dks[k - 1], sub_star))


def _gn_comparisons(x: _MatrixFacts):
    col_g = x.profile.col_gcds[-1]
    row_g = x.profile.row_gcds[-1]
    for k in range(2, x.size + 1):
        yield _divides(x.dks[k - 1], col_g * row_g * x.dk[k],
                       ("k", "dk_star", "last_col_gcd", "last_row_gcd", "dk"),
                       (k, x.dks[k - 1], col_g, row_g, x.dk[k]))


def _chio_comparisons(x: _MatrixFacts):
    n = x.m.rows
    det_cond = determinant(chio_condense(x.m))
    expected = x.m.entries[n - 1][n - 1] ** (n - 2) * x.det
    yield _holds(det_cond == expected, ("det_condensed", "expected"), (det_cond, expected))


def _desnanot_comparisons(x: _MatrixFacts):
    """Every 2 x 2 choice of rows and columns up to n = 3, three fixed ones above.

    det(M) is the one the other checks read, and each first minor is computed once.
    """
    n = x.m.rows
    first_minor = cache(partial(_first_minor, x.m.entries, n))
    if n <= 3:
        pairs = [
            (i1, i2, j1, j2)
            for i1 in range(n)
            for i2 in range(i1 + 1, n)
            for j1 in range(n)
            for j2 in range(j1 + 1, n)
        ]
    else:
        pairs = [(0, 1, 0, 1), (n - 2, n - 1, n - 2, n - 1), (0, n - 1, 0, n - 1)]
    for i1, i2, j1, j2 in pairs:
        res = _desnanot_residual(x.m, x.det, first_minor, i1, i2, j1, j2)
        yield _holds(res == 0, ("rows", "cols", "residual"), ([i1, i2], [j1, j2], res))


def _square(x: _MatrixFacts) -> bool:
    return x.m.is_square and x.m.rows >= 2


_MATRIX_PROPERTIES = (
    _Property(PropertyId.MINORFACTS_A, _always, lambda x: (
        _divides(x.snf_dk[k], x.dks[k - 1], ("k", "dk", "dk_star"), (k, x.snf_dk[k], x.dks[k - 1]))
        for k in range(1, x.size + 1))),
    _Property(PropertyId.MINORFACTS_B, lambda x: x.m.rows >= 2 or x.m.cols >= 2,
              _deletion_comparisons),
    _Property(PropertyId.MINORFACTS_C, lambda x: x.m.rows >= 2 and x.m.cols >= 2,
              _corner_comparisons),
    _Property(PropertyId.MINORFACTS_D, lambda x: x.m.is_square, lambda x: (_holds(
        x.dk[x.size] == x.dks[x.size - 1] == abs(x.det),
        ("dn", "dn_star", "abs_det"), (x.dk[x.size], x.dks[x.size - 1], abs(x.det))),)),
    _Property(PropertyId.MINORFACTS_E, _always, lambda x: (
        _divides(x.dk[k], x.dk[k + 1], ("k", "dk", "dk_next"), (k, x.dk[k], x.dk[k + 1]))
        for k in range(x.size))),
    _Property(PropertyId.DKSTAR_CHAIN, lambda x: x.size >= 3, lambda x: (
        _divides(x.dks[k - 1], x.dks[k], ("k", "dk_star", "dk_star_next"), (k, x.dks[k - 1], x.dks[k]))
        for k in range(2, x.size))),
    _Property(PropertyId.GN_BOUND, lambda x: x.size >= 2, _gn_comparisons),
    _Property(PropertyId.D1D2STAR, lambda x: x.size >= 2, lambda x: (_divides(
        x.dk[1] * x.dks[1], x.dks[0] * x.dk[2],
        ("d1", "d2_star", "d1_star", "d2"), (x.dk[1], x.dks[1], x.dks[0], x.dk[2])),)),
    _Property(PropertyId.CHIO, _square, _chio_comparisons),
    _Property(PropertyId.DESNANOT, _square, _desnanot_comparisons),
)

_CONJ_MINORS = _Property(PropertyId.CONJ_MINORS, lambda x: x.size >= 2, lambda x: (
    _divides(x.dk[k] * x.dks[k], x.dks[k - 1] * x.dk[k + 1],
             ("k", "dk", "dk1_star", "dk_star", "dk1"), (k, x.dk[k], x.dks[k], x.dks[k - 1], x.dk[k + 1]))
    for k in range(1, x.size)))


def _dkl_terms(x: _Vertex):
    """(k, D_k(L'), m^(k-1), m^(k-1) D_{k+1}(L), g^2 m^(k-1) D_{k+1}(L)) for k = 1..n-2."""
    for k in range(1, x.n - 1):
        scale = x.m ** (k - 1)
        lower = scale * x.dk[k + 1]
        yield k, x.dkp[k], scale, lower, x.gg * lower


def _alpha_terms(x: _Vertex, first: int):
    """(k, a'_k, m a_{k+1}) for k = first..n-2."""
    for k in range(first, x.n - 1):
        yield k, x.alpha_p[k - 1], x.m * x.alpha[k]


def _alpha1_cap(x: _Vertex) -> int:
    """gcd(g^2 a_1, m) a_2, the sharper PROP_ALPHA1 bound on a'_1."""
    return gcd(x.gg * x.alpha[0], x.m) * x.alpha[1]


_OPERATION_PROPERTIES = (
    _Property(PropertyId.THM_DKL_A, _always, lambda x: (
        _holds(lhs == scale * x.dk_star[k],
               ("k", "dk_prime", "m_power", "dk1_star"), (k, lhs, scale, x.dk_star[k]))
        for k, lhs, scale, _, _ in _dkl_terms(x))),
    _Property(PropertyId.THM_DKL_B, _always, lambda x: (
        _divides(lower, lhs, ("k", "bound", "dk_prime"), (k, lower, lhs))
        for k, lhs, _, lower, _ in _dkl_terms(x))),
    _Property(PropertyId.THM_DKL_C, _always, lambda x: (
        _divides(lhs, upper, ("k", "dk_prime", "bound"), (k, lhs, upper))
        for k, lhs, _, _, upper in _dkl_terms(x))),
    _Property(PropertyId.THM_DKL_D, _always, lambda x: (
        _holds(lower <= lhs <= upper, ("k", "lower", "dk_prime", "upper"), (k, lower, lhs, upper))
        for k, lhs, _, lower, upper in _dkl_terms(x))),
    _Property(PropertyId.COR_ORDER_A, _always, lambda x: (
        _divides(x.lower, x.order_p, ("lower", "order_prime"), (x.lower, x.order_p)),)),
    _Property(PropertyId.COR_ORDER_B, _always, lambda x: (
        _divides(x.order_p, x.upper, ("order_prime", "upper"), (x.order_p, x.upper)),)),
    _Property(PropertyId.COR_ORDER_C, _always, lambda x: (_holds(
        x.lower <= x.order_p <= x.upper, ("lower", "order_prime", "upper"), (x.lower, x.order_p, x.upper)),)),
    _Property(PropertyId.PROP_ALPHA1_A, _always, lambda x: (_divides(
        x.alpha_p[0], x.gg * x.alpha[0] * x.alpha[1],
        ("alpha1_prime", "bound"), (x.alpha_p[0], x.gg * x.alpha[0] * x.alpha[1])),)),
    _Property(PropertyId.PROP_ALPHA1_B, _always, lambda x: (_divides(
        x.alpha_p[0], x.m * x.alpha[1], ("alpha1_prime", "bound"), (x.alpha_p[0], x.m * x.alpha[1])),)),
    _Property(PropertyId.PROP_ALPHA1_C, _always, lambda x: (_divides(
        x.alpha_p[0], _alpha1_cap(x), ("alpha1_prime", "bound"), (x.alpha_p[0], _alpha1_cap(x))),)),
    _Property(PropertyId.PROP_ALPHA1_D, _always, lambda x: (_divides(
        x.alpha[0] * x.alpha[1], x.alpha_p[0],
        ("product", "alpha1_prime"), (x.alpha[0] * x.alpha[1], x.alpha_p[0])),)),
    _Property(PropertyId.PROP_ALPHA1_E, _always, lambda x: (_holds(
        x.alpha[0] * x.alpha[1] <= x.alpha_p[0] <= _alpha1_cap(x),
        ("lower", "alpha1_prime", "upper"), (x.alpha[0] * x.alpha[1], x.alpha_p[0], _alpha1_cap(x))),)),
    _Property(PropertyId.THM_ALPHAK_A, lambda x: x.n >= 4, lambda x: (
        _divides(apk, x.gg * m_ak1, ("k", "alpha_k_prime", "bound"), (k, apk, x.gg * m_ak1))
        for k, apk, m_ak1 in _alpha_terms(x, 2))),
    _Property(PropertyId.THM_ALPHAK_B, lambda x: x.n >= 4, lambda x: (
        _divides(m_ak1, x.gg * apk, ("k", "m_alpha", "scaled"), (k, m_ak1, x.gg * apk))
        for k, apk, m_ak1 in _alpha_terms(x, 2))),
    _Property(PropertyId.THM_ALPHAK_C, lambda x: x.n >= 4, lambda x: (
        _holds(m_ak1 <= x.gg * apk and apk <= x.gg * m_ak1,
               ("k", "alpha_k_prime", "m_alpha", "g_squared"), (k, apk, m_ak1, x.gg))
        for k, apk, m_ak1 in _alpha_terms(x, 2))),
    _Property(PropertyId.COR_GCD1, lambda x: x.g == 1, lambda x: (
        _holds(x.alpha_p[0] == x.alpha[1], ("k", "alpha1_prime", "alpha2"), (1, x.alpha_p[0], x.alpha[1])),
        *(_holds(apk == m_ak1, ("k", "alpha_k_prime", "m_alpha"), (k, apk, m_ak1))
          for k, apk, m_ak1 in _alpha_terms(x, 2)))),
)

_CONJ_ALPHA = _Property(PropertyId.CONJ_ALPHA, _always, lambda x: (
    _divides(apk, m_ak1, ("k", "alpha_k_prime", "m_alpha"), (k, apk, m_ak1))
    for k, apk, m_ak1 in _alpha_terms(x, 1)))


# ---------------------------------------------------------------------------
# checks


def verify_minor_properties(m: IntegerMatrix) -> list[PropertyReport]:
    """Run the whole matrix family of checks on one matrix.

    The two submatrix-monotonicity properties are universally quantified
    over submatrices; here they are instantiated on the single-deletion
    submatrices (drop the first row, the first column, or both), which
    keeps the check linear in the profile cost while still exercising the
    interesting direction (the deleted line is never the corner line).
    """
    facts = _facts(m)
    return [prop.report(facts) for prop in _MATRIX_PROPERTIES]


def check_conjecture_minors(m: IntegerMatrix) -> PropertyReport:
    """Open statement: D_k D_{k+1}* | D_k* D_{k+1} for every k = 1..min-1."""
    return _CONJ_MINORS.report(_facts(m))


def _facts(m: IntegerMatrix, inst: _Instance | None = None) -> _MatrixFacts:
    """The facts of m.  When m is the L that ``inst`` (by default the last
    instance) has built, MINORFACTS_A reads its SNF(L), and the profile
    is the one of its pivot scan, which also gives every vertex its D_k*."""
    inst = inst or graphs._last_instance
    if inst is not None and vars(inst).get("matrix") is m:
        return _MatrixFacts(m, snf=inst.snf, profile=inst.pivot_scan()[0])
    return _MatrixFacts(m)


class _VertexMinorFacts(_MatrixFacts):
    """The facts of L with v last that CONJ_MINORS reads; only a failing report's payload reads ``m``."""

    m = property(lambda self: self.record.matrix)

    def __init__(self, record: _Vertex) -> None:
        self.record, self.size, self.dk, self.dks = record, record.n, record.dk, record.dk_star


def _vertex_minors_report(record: _Vertex) -> PropertyReport:
    """CONJ_MINORS on L with v last, its D_k read from SNF(L) and its D_k* from the pivot scan of L."""
    return _CONJ_MINORS.report(_VertexMinorFacts(record))


def _operation_reports(inst: _Instance, v: int, properties) -> list[PropertyReport]:
    """The reports of ``properties`` for the reduction of the instance at v (0-based)."""
    graphs._check_vertex(v, inst.graph.n)
    if inst.graph.n < 3:
        return [_NOT_APPLICABLE[prop.pid] for prop in properties]
    record = inst.vertex(v)
    return [prop.report(record) for prop in properties]


def verify_operation_theorems(g: Multigraph, s: ArithmeticalStructure, v: int) -> list[PropertyReport]:
    """Check every proven before/after relation for the reduction at v.

    For n < 3 the compared quantities do not all exist and every check
    reports not_applicable.  `COR_GCD1` additionally requires the last
    row of L to have gcd 1 and is not_applicable otherwise.  All indices
    in witnesses use k as in the property comments: a_k is the k-th
    invariant factor of L, a'_k of L', both 1-based.
    """
    return _operation_reports(instance_of(g, s), v, _OPERATION_PROPERTIES)


def check_conjecture_alpha(g: Multigraph, s: ArithmeticalStructure, v: int) -> PropertyReport:
    """Open statement: a'_k | d[v] * a_{k+1} for every k = 1..n-2."""
    return _operation_reports(instance_of(g, s), v, (_CONJ_ALPHA,))[0]


# ---------------------------------------------------------------------------
# fuzzing


class FuzzConfig(Record):
    """Deterministic fuzz-campaign parameters.

    Each case derives its own generator from ``seed`` and the case index,
    so campaigns are reproducible and individual cases can be replayed.
    ``target`` limits which checks run: "minors" and "alpha" probe the
    two open statements, "theorems" the proven ones, "all" everything.
    ``structure_queries`` of None means a built-in battery of small paths
    and cycles.
    """

    __slots__ = ("seed", "matrix_dims", "entry_bound", "case_count", "structure_queries", "target")

    def __init__(self, seed: int = 0, matrix_dims: tuple[int, int] = (2, 6), entry_bound: int = 9,
                 case_count: int = 100,
                 structure_queries: tuple[EnumerationQuery, ...] | None = None,
                 target: str = "all") -> None:
        self._set(seed, matrix_dims, entry_bound, case_count, structure_queries, target)
        if not isinstance(self.matrix_dims, (tuple, list)) or len(self.matrix_dims) != 2:
            raise ValueError(f"matrix_dims must be a pair (lo, hi), got {self.matrix_dims!r}")
        lo, hi = self.matrix_dims
        for name, value in (("seed", self.seed), ("entry_bound", self.entry_bound),
                            ("case_count", self.case_count), ("each matrix_dims entry", lo),
                            ("each matrix_dims entry", hi)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 1 <= lo <= hi:
            raise ValueError(f"bad dimension range {self.matrix_dims}")
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be at least 1")
        if self.case_count < 0:
            raise ValueError("case_count must be nonnegative")
        if self.target not in ("all", "minors", "alpha", "theorems"):
            raise ValueError(f"unknown target {self.target!r}")
        queries = self.structure_queries
        if queries is not None and (not isinstance(queries, (tuple, list))
                                    or not all(isinstance(q, EnumerationQuery) for q in queries)):
            raise ValueError(f"structure_queries must be None or a tuple of EnumerationQuery, got {queries!r}")


class FuzzSummary(Record):
    """Tallies of a campaign plus every failing report, in case order.

    Unlike the other records it is filled in as the campaign runs, so it
    can be assigned to and is not hashable.  Each summary gets fresh
    containers unless some are passed in.
    """

    __slots__ = ("config", "cases", "tallies", "failures", "witness_paths")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, config: FuzzConfig, cases: int = 0,
                 tallies: dict[str, dict[str, int]] | None = None,
                 failures: list[PropertyReport] | None = None,
                 witness_paths: list[str] | None = None) -> None:
        self.config = config
        self.cases = cases
        self.tallies = {} if tallies is None else tallies
        self.failures = [] if failures is None else failures
        self.witness_paths = [] if witness_paths is None else witness_paths

    def tally(self, report: PropertyReport) -> None:
        key = _ID_TEXT[report.property_id]
        bucket = self.tallies.get(key)
        if bucket is None:
            bucket = self.tallies[key] = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0}
        bucket[report.status] += 1

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    @property
    def proven_failure_count(self) -> int:
        return sum(1 for r in self.failures if r.property_id in PROVEN_IDS)


def default_structure_queries() -> tuple[EnumerationQuery, ...]:
    """Small paths and cycles carrying many structures below r_max = 6."""
    return (
        EnumerationQuery(Multigraph.path(3), 6),
        EnumerationQuery(Multigraph.path(4), 6),
        EnumerationQuery(Multigraph.cycle(3), 6),
        EnumerationQuery(Multigraph.cycle(4), 6),
    )


_CASE_KINDS = ("uniform", "symmetric", "row_scaled", "col_scaled")


def case_matrix(cfg: FuzzConfig, index: int) -> IntegerMatrix:
    """The matrix that campaign case `index` of `cfg` examines.

    Cases cycle through four generators: uniform entries; symmetric (the
    shape structure matrices have); and matrices whose last row or column
    is scaled by a common factor, which makes the corner GCDs in the
    bounds nontrivial.  Entries always stay within ``entry_bound``.
    """
    rng = random.Random(f"{cfg.seed}:{index}")
    lo, hi = cfg.matrix_dims
    bound = cfg.entry_bound
    kind = _CASE_KINDS[index % len(_CASE_KINDS)]
    rows = rng.randint(lo, hi)
    cols = rng.randint(lo, hi)
    if kind == "symmetric":
        cols = rows
        a = [[0] * rows for _ in range(rows)]
        for i in range(rows):
            for j in range(i, rows):
                a[i][j] = a[j][i] = rng.randint(-bound, bound)
    elif kind in ("row_scaled", "col_scaled"):
        factor = min(3, bound)
        base = max(1, bound // factor)
        a = [[rng.randint(-base, base) for _ in range(cols)] for _ in range(rows)]
        if kind == "row_scaled":
            a[rows - 1] = [x * factor for x in a[rows - 1]]
        else:
            for row in a:
                row[cols - 1] *= factor
    else:
        a = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return IntegerMatrix._unchecked(tuple(tuple(row) for row in a))


def _case_draw(cfg: FuzzConfig, index: int, draws: list[tuple[int, int]]) -> tuple[int, int]:
    """The (pair, vertex) draw of campaign case `index`, the same whenever it is made."""
    rng = random.Random(f"{cfg.seed}:{index}:instance")
    return draws[rng.randrange(len(draws))]


def shrink_matrix_witness(m: IntegerMatrix, still_fails) -> IntegerMatrix:
    """Greedily minimize a failing matrix while ``still_fails`` holds.

    Deterministic: first try dropping rows, then columns (each first to
    last, repeated to a fixpoint), then shrink entries row-major toward
    zero.  The result still satisfies ``still_fails``.
    """
    changed = True
    while changed:
        changed = False
        while m.rows > 1:
            for i in range(m.rows):
                cand = m.submatrix((r for r in range(m.rows) if r != i), range(m.cols))
                if still_fails(cand):
                    m = cand
                    changed = True
                    break
            else:
                break
        while m.cols > 1:
            for j in range(m.cols):
                cand = m.submatrix(range(m.rows), (c for c in range(m.cols) if c != j))
                if still_fails(cand):
                    m = cand
                    changed = True
                    break
            else:
                break
        for i in range(m.rows):
            for j in range(m.cols):
                v = m.entries[i][j]
                if v == 0:
                    continue
                candidates = [0]
                if abs(v) > 1:
                    candidates.append(v // 2 if v > 0 else -(-v // 2))
                candidates.append(v - 1 if v > 0 else v + 1)
                for new_val in candidates:
                    if new_val == v:
                        continue
                    rows = [list(row) for row in m.entries]
                    rows[i][j] = new_val
                    cand = IntegerMatrix._unchecked(tuple(tuple(row) for row in rows))
                    if still_fails(cand):
                        m = cand
                        changed = True
                        break
    return m


def _shrunk_failure(report: PropertyReport) -> PropertyReport:
    """Replace a matrix witness by its minimized version when possible.

    The failing row of the matrix table is re-run on the shrunk matrix so
    that all recorded values (k, the D values, ...) describe the shrunk
    witness; the original matrix is kept alongside under ``matrix_original``.
    """
    if report.witness is None or "matrix" not in report.witness:
        return report
    row = next(p for p in (*_MATRIX_PROPERTIES, _CONJ_MINORS) if p.pid is report.property_id)
    original = IntegerMatrix.from_rows(report.witness["matrix"])
    if not row.report(_MatrixFacts(original)).failed:  # pragma: no cover - safety net
        return report
    small = shrink_matrix_witness(original, lambda m: row.report(_MatrixFacts(m)).failed)
    if small == original:
        return report
    fresh = row.report(_MatrixFacts(small))
    witness = dict(fresh.witness or {})
    witness["matrix_original"] = report.witness["matrix"]
    return PropertyReport(fresh.property_id, fresh.status, witness, fresh.degenerate)


def fuzz_campaign(cfg: FuzzConfig, archive_dir=None) -> FuzzSummary:
    """Run `cfg.case_count` deterministic cases and tally every report.

    Matrix cases exercise the matrix checks; structure cases draw one
    (graph, structure, vertex) instance per case from the configured
    enumeration queries.  Each case makes its own draw when it runs, and
    each (graph, structure) pair drawn gets one :class:`_Instance`, kept
    for the whole campaign, so the instances, each with the pivot scan of
    its L, grow with the pairs drawn, not with the cases.  Both checks of
    a case matrix read one set of facts.  Failing matrix witnesses are
    minimized before being recorded.  When ``archive_dir`` is given, each
    failure is also written there as a JSON witness file.
    """
    from . import jsonio  # local import: jsonio is the serialization boundary

    want_matrix_props = cfg.target in ("all", "theorems")
    want_minors = cfg.target in ("all", "minors")
    structure_props = {"all": (*_OPERATION_PROPERTIES, _CONJ_ALPHA), "theorems": _OPERATION_PROPERTIES,
                       "alpha": (_CONJ_ALPHA,), "minors": ()}[cfg.target]

    pairs: list[tuple[Multigraph, ArithmeticalStructure]] = []
    draws: list[tuple[int, int]] = []  # (index into pairs, vertex)
    if structure_props:
        queries = (
            cfg.structure_queries
            if cfg.structure_queries is not None
            else default_structure_queries()
        )
        for query in queries:
            if query.graph.n < 3:
                continue
            for s in enumerate_structures(query):
                draws.extend((len(pairs), v) for v in range(query.graph.n))
                pairs.append((query.graph, s))
    instances: dict[int, _Instance] = {}  # one per pair drawn

    summary = FuzzSummary(config=cfg)
    for index in range(cfg.case_count):
        reports: list[PropertyReport] = []
        if want_matrix_props or want_minors:
            facts = _MatrixFacts(case_matrix(cfg, index))
            if want_matrix_props:
                reports.extend(prop.report(facts) for prop in _MATRIX_PROPERTIES)
            if want_minors:
                reports.append(_CONJ_MINORS.report(facts))
        if draws:
            pair, v = _case_draw(cfg, index, draws)
            inst = instances.get(pair)
            if inst is None:
                inst = instances[pair] = _Instance(*pairs[pair])
            reports.extend(_operation_reports(inst, v, structure_props))
            if cfg.target == "all":
                # the structure matrices are a targeted input family for
                # the minors statement as well
                reports.append(_vertex_minors_report(inst.vertex(v)))
        for report in reports:
            summary.tally(report)
            if report.failed:
                report = _shrunk_failure(report)
                summary.failures.append(report)
                if archive_dir is not None:
                    path = jsonio.write_witness(
                        archive_dir, report, cfg.seed, index, len(summary.failures)
                    )
                    summary.witness_paths.append(str(path))
        summary.cases += 1
    return summary
