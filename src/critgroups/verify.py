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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from math import gcd

from .enumeration import EnumerationQuery, enumerate_structures
from .graphs import (
    ArithmeticalStructure,
    Multigraph,
    StructureError,
    star_clique_reduction,
    structure_matrix,
    validate_structure,
)
from .linalg import (
    IntegerMatrix,
    chio_condense,
    desnanot_jacobi_residual,
    determinant,
    minor_gcd_corner_sequence,
    minor_gcd_profile,
    minor_gcd_sequence,
    row_gcd,
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

_MATRIX_ORDER = [
    PropertyId.MINORFACTS_A,
    PropertyId.MINORFACTS_B,
    PropertyId.MINORFACTS_C,
    PropertyId.MINORFACTS_D,
    PropertyId.MINORFACTS_E,
    PropertyId.DKSTAR_CHAIN,
    PropertyId.GN_BOUND,
    PropertyId.D1D2STAR,
    PropertyId.CHIO,
    PropertyId.DESNANOT,
]

_OPERATION_ORDER = [
    PropertyId.THM_DKL_A,
    PropertyId.THM_DKL_B,
    PropertyId.THM_DKL_C,
    PropertyId.THM_DKL_D,
    PropertyId.COR_ORDER_A,
    PropertyId.COR_ORDER_B,
    PropertyId.COR_ORDER_C,
    PropertyId.PROP_ALPHA1_A,
    PropertyId.PROP_ALPHA1_B,
    PropertyId.PROP_ALPHA1_C,
    PropertyId.PROP_ALPHA1_D,
    PropertyId.PROP_ALPHA1_E,
    PropertyId.THM_ALPHAK_A,
    PropertyId.THM_ALPHAK_B,
    PropertyId.THM_ALPHAK_C,
    PropertyId.COR_GCD1,
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check on one input.

    A failing report always carries a witness with the full input and the
    values involved, sufficient to rerun the same check deterministically.
    ``degenerate`` marks comparisons that ran into a zero divisor value.
    """

    property_id: PropertyId
    status: str
    witness: dict | None = None
    degenerate: bool = False

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def divides(a: int, b: int) -> bool:
    """a | b with the zero conventions: x | 0 for all x, 0 | y only for y = 0."""
    if a == 0:
        return b == 0
    return b % a == 0


def _matrix_payload(m: IntegerMatrix) -> list[list[int]]:
    return [list(row) for row in m.entries]


def _instance_payload(g: Multigraph, s: ArithmeticalStructure, v: int) -> dict:
    return {
        "graph_mult": [list(row) for row in g.mult],
        "d": list(s.d),
        "r": list(s.r),
        "vertex": v,
    }


class _Checker:
    """Accumulates per-k comparisons for one property on one input."""

    def __init__(self, pid: PropertyId, payload: dict):
        self.pid = pid
        self.payload = payload
        self.failure: dict | None = None
        self.degenerate = False

    def check(self, ok: bool, **details) -> None:
        if not ok and self.failure is None:
            self.failure = {**self.payload, "property_id": self.pid.value, **details}

    def check_divides(self, a: int, b: int, **details) -> None:
        """Record a | b; a zero on either side marks the report degenerate."""
        if a == 0 or b == 0:
            self.degenerate = True
        self.check(divides(a, b), **details)

    def report(self) -> PropertyReport:
        if self.failure is not None:
            return PropertyReport(self.pid, FAIL, self.failure, self.degenerate)
        return PropertyReport(self.pid, PASS, None, self.degenerate)


def _na(pid: PropertyId) -> PropertyReport:
    return PropertyReport(pid, NOT_APPLICABLE)


def verify_minor_properties(m: IntegerMatrix) -> list[PropertyReport]:
    """Run the whole matrix family of checks on one matrix.

    The two submatrix-monotonicity properties are universally quantified
    over submatrices; here they are instantiated on the single-deletion
    submatrices (drop the first row, the first column, or both), which
    keeps the check linear in the profile cost while still exercising the
    interesting direction (the deleted line is never the corner line).
    """
    prof = minor_gcd_profile(m)
    dk = prof.dk
    dks = prof.dk_star
    size = min(m.rows, m.cols)
    payload = {"matrix": _matrix_payload(m)}
    reports: dict[PropertyId, PropertyReport] = {}

    chk = _Checker(PropertyId.MINORFACTS_A, payload)
    for k in range(1, size + 1):
        chk.check_divides(dk[k], dks[k - 1], k=k, dk=dk[k], dk_star=dks[k - 1])
    reports[PropertyId.MINORFACTS_A] = chk.report()

    subs = []
    if m.rows >= 2:
        subs.append(m.submatrix(range(1, m.rows), range(m.cols)))
    if m.cols >= 2:
        subs.append(m.submatrix(range(m.rows), range(1, m.cols)))
    if subs:
        chk = _Checker(PropertyId.MINORFACTS_B, payload)
        for which, sub in enumerate(subs):
            sub_dk = minor_gcd_sequence(sub)
            for k in range(1, min(sub.rows, sub.cols) + 1):
                chk.check_divides(
                    dk[k], sub_dk[k], submatrix=which, k=k, dk=dk[k], sub_dk=sub_dk[k]
                )
        reports[PropertyId.MINORFACTS_B] = chk.report()
    else:
        reports[PropertyId.MINORFACTS_B] = _na(PropertyId.MINORFACTS_B)

    if m.rows >= 2 and m.cols >= 2:
        sub = m.submatrix(range(1, m.rows), range(1, m.cols))
        chk = _Checker(PropertyId.MINORFACTS_C, payload)
        for k, sub_star in enumerate(minor_gcd_corner_sequence(sub), start=1):
            chk.check_divides(dks[k - 1], sub_star, k=k, dk_star=dks[k - 1], sub_dk_star=sub_star)
        reports[PropertyId.MINORFACTS_C] = chk.report()
    else:
        reports[PropertyId.MINORFACTS_C] = _na(PropertyId.MINORFACTS_C)

    if m.is_square:
        chk = _Checker(PropertyId.MINORFACTS_D, payload)
        det = abs(determinant(m))
        chk.check(
            dk[size] == dks[size - 1] == det, dn=dk[size], dn_star=dks[size - 1], abs_det=det
        )
        reports[PropertyId.MINORFACTS_D] = chk.report()
    else:
        reports[PropertyId.MINORFACTS_D] = _na(PropertyId.MINORFACTS_D)

    chk = _Checker(PropertyId.MINORFACTS_E, payload)
    for k in range(size):
        chk.check_divides(dk[k], dk[k + 1], k=k, dk=dk[k], dk_next=dk[k + 1])
    reports[PropertyId.MINORFACTS_E] = chk.report()

    if size >= 3:
        chk = _Checker(PropertyId.DKSTAR_CHAIN, payload)
        for k in range(2, size):
            chk.check_divides(dks[k - 1], dks[k], k=k, dk_star=dks[k - 1], dk_star_next=dks[k])
        reports[PropertyId.DKSTAR_CHAIN] = chk.report()
    else:
        reports[PropertyId.DKSTAR_CHAIN] = _na(PropertyId.DKSTAR_CHAIN)

    if size >= 2:
        col_g = prof.col_gcds[-1]
        row_g = prof.row_gcds[-1]
        chk = _Checker(PropertyId.GN_BOUND, payload)
        for k in range(2, size + 1):
            chk.check_divides(
                dks[k - 1],
                col_g * row_g * dk[k],
                k=k,
                dk_star=dks[k - 1],
                last_col_gcd=col_g,
                last_row_gcd=row_g,
                dk=dk[k],
            )
        reports[PropertyId.GN_BOUND] = chk.report()

        chk = _Checker(PropertyId.D1D2STAR, payload)
        chk.check_divides(
            dk[1] * dks[1],
            dks[0] * dk[2],
            d1=dk[1],
            d2_star=dks[1],
            d1_star=dks[0],
            d2=dk[2],
        )
        reports[PropertyId.D1D2STAR] = chk.report()
    else:
        reports[PropertyId.GN_BOUND] = _na(PropertyId.GN_BOUND)
        reports[PropertyId.D1D2STAR] = _na(PropertyId.D1D2STAR)

    if m.is_square and m.rows >= 2:
        n = m.rows
        chk = _Checker(PropertyId.CHIO, payload)
        det = determinant(m)
        det_cond = determinant(chio_condense(m))
        expected = m.entries[n - 1][n - 1] ** (n - 2) * det
        chk.check(det_cond == expected, det_condensed=det_cond, expected=expected)
        reports[PropertyId.CHIO] = chk.report()

        chk = _Checker(PropertyId.DESNANOT, payload)
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
            res = desnanot_jacobi_residual(m, i1, i2, j1, j2)
            chk.check(res == 0, rows=[i1, i2], cols=[j1, j2], residual=res)
        reports[PropertyId.DESNANOT] = chk.report()
    else:
        reports[PropertyId.CHIO] = _na(PropertyId.CHIO)
        reports[PropertyId.DESNANOT] = _na(PropertyId.DESNANOT)

    return [reports[pid] for pid in _MATRIX_ORDER]


def _require_valid(g: Multigraph, s: ArithmeticalStructure) -> None:
    violation = validate_structure(g, s.d, s.r)
    if violation is not None:
        raise StructureError(violation.message)


@dataclass(frozen=True)
class _OperationData:
    """Everything the operation checks compare, computed once."""

    n: int
    m_val: int  # d[v]
    g_val: int  # gcd of the last row of L (v last)
    dk: tuple[int, ...]  # D_k(L)
    dk_star: tuple[int, ...]  # D_k*(L), v last
    dk_prime: tuple[int, ...]  # D_k(L')
    alpha: tuple[int, ...]  # invariant factors of L (length n-1)
    alpha_prime: tuple[int, ...]  # invariant factors of L' (length n-2)
    order: int  # |K| = product of alpha
    order_prime: int  # |K'|


def _operation_data(
    g: Multigraph, s: ArithmeticalStructure, v: int, with_profiles: bool = True
) -> _OperationData:
    n = g.n
    lp = structure_matrix(g, s, last_vertex=v)
    snf = smith_normal_form(lp)
    if snf.rank != n - 1:
        raise ArithmeticError(f"L has Smith rank {snf.rank}, expected {n - 1}")
    reduced = star_clique_reduction(g, s, v)
    l2 = structure_matrix(reduced.graph, reduced.structure)
    snf2 = smith_normal_form(l2)
    if snf2.rank != n - 2:
        raise ArithmeticError(f"L' has Smith rank {snf2.rank}, expected {n - 2}")
    if with_profiles:
        prof = minor_gcd_profile(lp)
        dk, dk_star, dk_prime = prof.dk, prof.dk_star, minor_gcd_sequence(l2)
    else:
        dk = dk_star = dk_prime = ()
    alpha = snf.diag[: n - 1]
    alpha_prime = snf2.diag[: n - 2]
    order = 1
    for a in alpha:
        order *= a
    order_prime = 1
    for a in alpha_prime:
        order_prime *= a
    return _OperationData(
        n=n,
        m_val=s.d[v],
        g_val=row_gcd(lp, n - 1),
        dk=dk,
        dk_star=dk_star,
        dk_prime=dk_prime,
        alpha=alpha,
        alpha_prime=alpha_prime,
        order=order,
        order_prime=order_prime,
    )


def verify_operation_theorems(g: Multigraph, s: ArithmeticalStructure, v: int) -> list[PropertyReport]:
    """Check every proven before/after relation for the reduction at v.

    For n < 3 the compared quantities do not all exist and every check
    reports not_applicable.  `COR_GCD1` additionally requires the last
    row of L to have gcd 1 and is not_applicable otherwise.  All indices
    in witnesses use k as in the property comments: a_k is the k-th
    invariant factor of L, a'_k of L', both 1-based.
    """
    _require_valid(g, s)
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range 0..{g.n - 1}")
    if g.n < 3:
        return [_na(pid) for pid in _OPERATION_ORDER]
    data = _operation_data(g, s, v)
    n, m_val, g_val = data.n, data.m_val, data.g_val
    alpha, alpha2 = data.alpha, data.alpha_prime
    payload = _instance_payload(g, s, v)
    reports: dict[PropertyId, PropertyReport] = {}

    chk_a = _Checker(PropertyId.THM_DKL_A, payload)
    chk_b = _Checker(PropertyId.THM_DKL_B, payload)
    chk_c = _Checker(PropertyId.THM_DKL_C, payload)
    chk_d = _Checker(PropertyId.THM_DKL_D, payload)
    for k in range(1, n - 1):
        scale = m_val ** (k - 1)
        lhs = data.dk_prime[k]
        lower = scale * data.dk[k + 1]
        upper = g_val * g_val * lower
        chk_a.check(
            lhs == scale * data.dk_star[k],
            k=k,
            dk_prime=lhs,
            m_power=scale,
            dk1_star=data.dk_star[k],
        )
        chk_b.check_divides(lower, lhs, k=k, bound=lower, dk_prime=lhs)
        chk_c.check_divides(lhs, upper, k=k, dk_prime=lhs, bound=upper)
        chk_d.check(lower <= lhs <= upper, k=k, lower=lower, dk_prime=lhs, upper=upper)
    reports[PropertyId.THM_DKL_A] = chk_a.report()
    reports[PropertyId.THM_DKL_B] = chk_b.report()
    reports[PropertyId.THM_DKL_C] = chk_c.report()
    reports[PropertyId.THM_DKL_D] = chk_d.report()

    lower = m_val ** (n - 3) * data.order
    upper = g_val * g_val * lower
    chk = _Checker(PropertyId.COR_ORDER_A, payload)
    chk.check_divides(lower, data.order_prime, lower=lower, order_prime=data.order_prime)
    reports[PropertyId.COR_ORDER_A] = chk.report()
    chk = _Checker(PropertyId.COR_ORDER_B, payload)
    chk.check_divides(data.order_prime, upper, order_prime=data.order_prime, upper=upper)
    reports[PropertyId.COR_ORDER_B] = chk.report()
    chk = _Checker(PropertyId.COR_ORDER_C, payload)
    chk.check(
        lower <= data.order_prime <= upper,
        lower=lower,
        order_prime=data.order_prime,
        upper=upper,
    )
    reports[PropertyId.COR_ORDER_C] = chk.report()

    a1, a2 = alpha[0], alpha[1]
    ap1 = alpha2[0]
    gg = g_val * g_val
    cap = gcd(gg * a1, m_val) * a2
    chk = _Checker(PropertyId.PROP_ALPHA1_A, payload)
    chk.check_divides(ap1, gg * a1 * a2, alpha1_prime=ap1, bound=gg * a1 * a2)
    reports[PropertyId.PROP_ALPHA1_A] = chk.report()
    chk = _Checker(PropertyId.PROP_ALPHA1_B, payload)
    chk.check_divides(ap1, m_val * a2, alpha1_prime=ap1, bound=m_val * a2)
    reports[PropertyId.PROP_ALPHA1_B] = chk.report()
    chk = _Checker(PropertyId.PROP_ALPHA1_C, payload)
    chk.check_divides(ap1, cap, alpha1_prime=ap1, bound=cap)
    reports[PropertyId.PROP_ALPHA1_C] = chk.report()
    chk = _Checker(PropertyId.PROP_ALPHA1_D, payload)
    chk.check_divides(a1 * a2, ap1, product=a1 * a2, alpha1_prime=ap1)
    reports[PropertyId.PROP_ALPHA1_D] = chk.report()
    chk = _Checker(PropertyId.PROP_ALPHA1_E, payload)
    chk.check(a1 * a2 <= ap1 <= cap, lower=a1 * a2, alpha1_prime=ap1, upper=cap)
    reports[PropertyId.PROP_ALPHA1_E] = chk.report()

    if n >= 4:
        chk_a = _Checker(PropertyId.THM_ALPHAK_A, payload)
        chk_b = _Checker(PropertyId.THM_ALPHAK_B, payload)
        chk_c = _Checker(PropertyId.THM_ALPHAK_C, payload)
        for k in range(2, n - 1):
            apk = alpha2[k - 1]
            ak1 = alpha[k]
            chk_a.check_divides(apk, gg * m_val * ak1, k=k, alpha_k_prime=apk, bound=gg * m_val * ak1)
            chk_b.check_divides(m_val * ak1, gg * apk, k=k, m_alpha=m_val * ak1, scaled=gg * apk)
            chk_c.check(
                m_val * ak1 <= gg * apk and apk <= gg * m_val * ak1,
                k=k,
                alpha_k_prime=apk,
                m_alpha=m_val * ak1,
                g_squared=gg,
            )
        reports[PropertyId.THM_ALPHAK_A] = chk_a.report()
        reports[PropertyId.THM_ALPHAK_B] = chk_b.report()
        reports[PropertyId.THM_ALPHAK_C] = chk_c.report()
    else:
        reports[PropertyId.THM_ALPHAK_A] = _na(PropertyId.THM_ALPHAK_A)
        reports[PropertyId.THM_ALPHAK_B] = _na(PropertyId.THM_ALPHAK_B)
        reports[PropertyId.THM_ALPHAK_C] = _na(PropertyId.THM_ALPHAK_C)

    if g_val == 1:
        chk = _Checker(PropertyId.COR_GCD1, payload)
        chk.check(ap1 == a2, k=1, alpha1_prime=ap1, alpha2=a2)
        for k in range(2, n - 1):
            chk.check(
                alpha2[k - 1] == m_val * alpha[k],
                k=k,
                alpha_k_prime=alpha2[k - 1],
                m_alpha=m_val * alpha[k],
            )
        reports[PropertyId.COR_GCD1] = chk.report()
    else:
        reports[PropertyId.COR_GCD1] = _na(PropertyId.COR_GCD1)

    return [reports[pid] for pid in _OPERATION_ORDER]


def check_conjecture_alpha(g: Multigraph, s: ArithmeticalStructure, v: int) -> PropertyReport:
    """Open statement: a'_k | d[v] * a_{k+1} for every k = 1..n-2."""
    _require_valid(g, s)
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range 0..{g.n - 1}")
    if g.n < 3:
        return _na(PropertyId.CONJ_ALPHA)
    data = _operation_data(g, s, v, with_profiles=False)
    chk = _Checker(PropertyId.CONJ_ALPHA, _instance_payload(g, s, v))
    for k in range(1, g.n - 1):
        chk.check_divides(
            data.alpha_prime[k - 1],
            data.m_val * data.alpha[k],
            k=k,
            alpha_k_prime=data.alpha_prime[k - 1],
            m_alpha=data.m_val * data.alpha[k],
        )
    return chk.report()


def check_conjecture_minors(m: IntegerMatrix) -> PropertyReport:
    """Open statement: D_k D_{k+1}* | D_k* D_{k+1} for every k = 1..min-1."""
    size = min(m.rows, m.cols)
    if size < 2:
        return _na(PropertyId.CONJ_MINORS)
    prof = minor_gcd_profile(m)
    chk = _Checker(PropertyId.CONJ_MINORS, {"matrix": _matrix_payload(m)})
    for k in range(1, size):
        chk.check_divides(
            prof.dk[k] * prof.dk_star[k],
            prof.dk_star[k - 1] * prof.dk[k + 1],
            k=k,
            dk=prof.dk[k],
            dk1_star=prof.dk_star[k],
            dk_star=prof.dk_star[k - 1],
            dk1=prof.dk[k + 1],
        )
    return chk.report()


# ---------------------------------------------------------------------------
# fuzzing


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic fuzz-campaign parameters.

    Each case derives its own generator from ``seed`` and the case index,
    so campaigns are reproducible and individual cases can be replayed.
    ``target`` limits which checks run: "minors" and "alpha" probe the
    two open statements, "theorems" the proven ones, "all" everything.
    ``structure_queries`` of None means a built-in battery of small paths
    and cycles.
    """

    seed: int = 0
    matrix_dims: tuple[int, int] = (2, 6)
    entry_bound: int = 9
    case_count: int = 100
    structure_queries: tuple[EnumerationQuery, ...] | None = None
    target: str = "all"

    def __post_init__(self) -> None:
        lo, hi = self.matrix_dims
        if not 1 <= lo <= hi:
            raise ValueError(f"bad dimension range {self.matrix_dims}")
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be at least 1")
        if self.case_count < 0:
            raise ValueError("case_count must be nonnegative")
        if self.target not in ("all", "minors", "alpha", "theorems"):
            raise ValueError(f"unknown target {self.target!r}")


@dataclass
class FuzzSummary:
    """Tallies of a campaign plus every failing report, in case order."""

    config: FuzzConfig
    cases: int = 0
    tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    failures: list[PropertyReport] = field(default_factory=list)
    witness_paths: list[str] = field(default_factory=list)

    def tally(self, report: PropertyReport) -> None:
        bucket = self.tallies.setdefault(
            report.property_id.value, {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0}
        )
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
    return IntegerMatrix(tuple(tuple(row) for row in a))


def _case_instance(cfg: FuzzConfig, index: int, instances) -> tuple:
    rng = random.Random(f"{cfg.seed}:{index}:instance")
    return instances[rng.randrange(len(instances))]

def _rerun_matrix_check(pid: PropertyId, m: IntegerMatrix) -> PropertyReport:
    """Re-run the single matrix-family check `pid` on a fresh matrix."""
    if pid is PropertyId.CONJ_MINORS:
        return check_conjecture_minors(m)
    for report in verify_minor_properties(m):
        if report.property_id is pid:
            return report
    raise ValueError(f"{pid.value} is not a matrix-family property")


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
                    cand = IntegerMatrix(tuple(tuple(row) for row in rows))
                    if still_fails(cand):
                        m = cand
                        changed = True
                        break
    return m


def _shrunk_failure(report: PropertyReport) -> PropertyReport:
    """Replace a matrix witness by its minimized version when possible.

    The check is re-run on the shrunk matrix so that all recorded values
    (k, the D values, ...) describe the shrunk witness; the original
    matrix is kept alongside under ``matrix_original``.
    """
    if report.witness is None or "matrix" not in report.witness:
        return report
    pid = report.property_id
    original = IntegerMatrix.from_rows(report.witness["matrix"])
    if not _rerun_matrix_check(pid, original).failed:  # pragma: no cover - safety net
        return report
    small = shrink_matrix_witness(
        original, lambda m: _rerun_matrix_check(pid, m).failed
    )
    if small == original:
        return report
    fresh = _rerun_matrix_check(pid, small)
    witness = dict(fresh.witness or {})
    witness["matrix_original"] = report.witness["matrix"]
    return replace(fresh, witness=witness)


def fuzz_campaign(cfg: FuzzConfig, archive_dir=None) -> FuzzSummary:
    """Run `cfg.case_count` deterministic cases and tally every report.

    Matrix cases exercise the matrix checks; structure cases draw one
    (graph, structure, vertex) instance per case from the configured
    enumeration queries.  Failing matrix witnesses are minimized before
    being recorded.  When ``archive_dir`` is given, each failure is also
    written there as a JSON witness file.
    """
    from . import jsonio  # local import: jsonio is the serialization boundary

    want_matrix_props = cfg.target in ("all", "theorems")
    want_minors = cfg.target in ("all", "minors")
    want_op_props = cfg.target in ("all", "theorems")
    want_alpha = cfg.target in ("all", "alpha")

    instances: list[tuple[Multigraph, ArithmeticalStructure, int]] = []
    if want_op_props or want_alpha:
        queries = (
            cfg.structure_queries
            if cfg.structure_queries is not None
            else default_structure_queries()
        )
        for query in queries:
            if query.graph.n < 3:
                continue
            for s in enumerate_structures(query):
                for v in range(query.graph.n):
                    instances.append((query.graph, s, v))

    summary = FuzzSummary(config=cfg)
    for index in range(cfg.case_count):
        reports: list[PropertyReport] = []
        if want_matrix_props or want_minors:
            mtx = case_matrix(cfg, index)
            if want_matrix_props:
                reports.extend(verify_minor_properties(mtx))
            if want_minors:
                reports.append(check_conjecture_minors(mtx))
        if instances and (want_op_props or want_alpha):
            gph, s, v = _case_instance(cfg, index, instances)
            if want_op_props:
                reports.extend(verify_operation_theorems(gph, s, v))
            if want_alpha:
                reports.append(check_conjecture_alpha(gph, s, v))
            if cfg.target == "all":
                # the structure matrices are a targeted input family for
                # the minors statement as well
                reports.append(check_conjecture_minors(structure_matrix(gph, s, last_vertex=v)))
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
