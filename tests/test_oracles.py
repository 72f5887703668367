"""Oracles that use neither the Smith form nor a minor scan, at sizes the scans cannot reach.

The order identity: adj(L) = |K| r r^T for every arithmetical structure,
so deleting row and column v of L leaves a determinant of |K| r_v^2.  The
order law of a star-clique reduction at v with m = d[v] and g the gcd of
row v of L: m^(n-3) |K| divides |K'|, which divides g^2 m^(n-3) |K|.
Both are checked exactly along seeded chains whose entries reach
thousands of bits, with determinants from a Bareiss elimination written
here.  The closed forms on paths and cycles (Braun et al., "Counting
arithmetical structures on paths and cycles", Discrete Math. 2018) give
the critical group of every structure without any elimination, and the
Laplacians of K_n and C_n have K(K_n) = (Z/n)^(n-2) and K(C_n) = Z/n at
sizes of 30 to 60 vertices, where the D_k and D_k* that ``critgroup``
prints for K_n have closed forms too.  The Smith form itself is checked at chain
scale against determinantal divisors taken from every minor, each a
Bareiss determinant written here.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import gcd, prod

import pytest

import critgroups.graphs as graphs
import critgroups.linalg as linalg
import critgroups.verify as verify
from critgroups import cli, jsonio
from critgroups.enumeration import EnumerationQuery, enumerate_structures
from critgroups.graphs import (
    Multigraph,
    critical_group,
    laplacian_structure,
    star_clique_reduction,
    structure_matrix,
)
from critgroups.linalg import smith_normal_form

from conftest import fibonacci, seeded_structure


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row swaps."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top = a[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - f * top[j]) // prev
        prev = top[k]
    return sign * a[n - 1][n - 1]


@pytest.mark.parametrize("seed, r_max, c_max", [(0, 1, 1), (1, 1, 1), (2, 3, 2), (3, 2, 3)])
def test_order_identity_and_order_law_along_chains(seed, r_max, c_max):
    """From 12 vertices down to 3, each step against |K| r_v^2 = det(L_v) and the step before."""
    rng = random.Random(seed)
    g, s = seeded_structure(rng, 12, r_max, c_max)
    previous = None
    while True:
        n = g.n
        order = critical_group(g, s).order
        v = min(range(n), key=s.r.__getitem__)
        rest = [i for i in range(n) if i != v]
        lv = [[s.d[i] if i == j else -g.mult[i][j] for j in rest] for i in rest]
        assert order * s.r[v] ** 2 == bareiss_det(lv), (seed, n)
        if previous is not None:
            lower, upper = previous
            assert order % lower == 0 and upper % order == 0, (seed, n)
        if n == 3:
            break
        u = rng.randrange(n)
        m, row_gcd = s.d[u], gcd(s.d[u], *g.mult[u])
        previous = m ** (n - 3) * order, row_gcd**2 * m ** (n - 3) * order
        reduced = star_clique_reduction(g, s, u)
        g, s = reduced.graph, reduced.structure
    assert max(x.bit_length() for x in s.d) > 1000


def test_smith_form_matches_every_minor_at_the_end_of_a_chain():
    """SNF(L) against D_k from all k x k minors, on 5, 4 and 3 vertices of a 17-vertex chain.

    Every reduction multiplies the entries of L by d[v], so at the end of
    the chain they pass 10^4 bits and all share a content D_1 > 1, which
    the Smith form divides out before it eliminates.  (From 18 vertices
    they reach 2.5 * 10^4 bits at n = 5, where these minors take seconds.)
    """
    rng = random.Random(0)
    g, s = seeded_structure(rng, 17, 1, 1)
    while g.n > 5:
        reduced = star_clique_reduction(g, s, rng.randrange(g.n))
        g, s = reduced.graph, reduced.structure
    bits = []
    while True:
        n = g.n
        m = structure_matrix(g, s)
        rows = m.entries
        dk = [1] + [0] * n
        for k in range(1, n + 1):
            for ri in combinations(range(n), k):
                for ci in combinations(range(n), k):
                    dk[k] = gcd(dk[k], bareiss_det([[rows[i][j] for j in ci] for i in ri]))
        assert dk[1] > 1, n
        diag = smith_normal_form(m).diag
        assert [prod(diag[:k]) for k in range(n + 1)] == dk, n
        bits.append(max(abs(x).bit_length() for row in rows for x in row))
        if n == 3:
            break
        reduced = star_clique_reduction(g, s, rng.randrange(n))
        g, s = reduced.graph, reduced.structure
    assert min(bits) > 10_000, bits


def test_critical_groups_of_paths_and_cycles_match_closed_forms():
    """Every structure on P3..P7 has a trivial group; on C3..C7 a cyclic one of order #{i : r_i = 1}.

    The enumerations are complete at these r_max (the largest r entry is
    F_n on P_n and F_(n+1) on C_n), so this covers all 195 path and 2,349
    cycle structures.
    """
    counts = {"path": 0, "cycle": 0}
    for n in range(3, 8):
        for kind, graph, r_max in (("path", Multigraph.path(n), fibonacci(n)),
                                   ("cycle", Multigraph.cycle(n), fibonacci(n + 1))):
            for s in enumerate_structures(EnumerationQuery(graph, r_max)):
                factors = [f for f in critical_group(graph, s).invariant_factors if f != 1]
                ones = s.r.count(1)
                if kind == "path":
                    assert factors == [], s
                else:
                    assert factors == ([ones] if ones > 1 else []), s
                counts[kind] += 1
    assert counts == {"path": 195, "cycle": 2349}


def complete_graph(n: int) -> Multigraph:
    return Multigraph(tuple(tuple(int(i != j) for j in range(n)) for i in range(n)))


@pytest.mark.parametrize("n", [30, 40, 60])
def test_critical_groups_of_complete_graphs_and_cycles_match_closed_forms(n):
    """K(K_n) = (Z/n)^(n-2) and K(C_n) = Z/n for the Laplacian structures."""
    kn = complete_graph(n)
    group = critical_group(kn, laplacian_structure(kn))
    assert group.invariant_factors == (1, *[n] * (n - 2))
    assert group.order == n ** (n - 2)  # Cayley's count of spanning trees
    cn = Multigraph.cycle(n)
    group = critical_group(cn, laplacian_structure(cn))
    assert group.invariant_factors == (*[1] * (n - 2), n)
    assert group.order == n


@pytest.mark.parametrize("n", [30, 40, 60])
def test_instance_dk_of_complete_graphs_matches_the_closed_form(n, monkeypatch):
    """D_k(L) of the K_n Laplacian is (1, 1, n, ..., n^(n-2), 0), with no minor scan run.

    It is what THM_DKL_B..D read; they pass at vertex 0 while any minor
    table would raise.
    """
    def no_scan(m):
        raise AssertionError("a minor scan ran")

    monkeypatch.setattr(verify, "_MinorTable", no_scan)
    monkeypatch.setattr(linalg, "_MinorTable", no_scan)
    kn = complete_graph(n)
    inst = graphs._Instance(kn, laplacian_structure(kn))
    assert inst.dk == (1, *(n ** k for k in range(n - 1)), 0)
    bounds = [p for p in verify._OPERATION_PROPERTIES if p.pid.value in ("THM_DKL_B", "THM_DKL_C", "THM_DKL_D")]
    reports = verify._operation_reports(inst, 0, bounds)
    assert [r.status for r in reports] == ["pass"] * 3
    assert inst.vertex(0).dk is inst.dk


@pytest.mark.parametrize("n", [30, 40, 60])
def test_critgroup_json_of_complete_graphs_matches_the_closed_form(n, tmp_path, capsys, monkeypatch):
    """``critgroup --json`` prints D_k* = (n-1, n, n^2, ..., n^(n-2), 0) for K_n, with no minor scan run.

    A k x k minor of L = nI - J is n^(k-1) (n - k) on equal row and
    column sets, +-n^(k-1) on sets that differ in one index, and 0
    otherwise (two rows of -1s).  So D_1* = n - 1, D_k* = n^(k-1) for
    2 <= k <= n - 1, where the corner minors include sets that differ in
    one index, and D_n* = det L = 0.
    """
    def no_scan(m):
        raise AssertionError("a minor scan ran")

    monkeypatch.setattr(verify, "_MinorTable", no_scan)
    monkeypatch.setattr(linalg, "_MinorTable", no_scan)
    path = tmp_path / "kn.graph.json"
    jsonio.save_graph(path, complete_graph(n))
    assert cli.main(["critgroup", str(path), "--laplacian", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = (n - 1, *(n ** k for k in range(1, n - 1)), 0)
    assert [jsonio.decode_int(x) for x in payload["dk_star"]] == list(expected)
    assert [jsonio.decode_int(x) for x in payload["dk"]] == [1, *(n ** k for k in range(n - 1)), 0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group_order_of_simple_graphs_at_40_vertices_is_the_reduced_laplacian_determinant(seed):
    """|K| = det(L_0) on seeded 40-vertex simple graphs (r = 1), by the Bareiss elimination above."""
    g, s = seeded_structure(random.Random(seed), 40, 1, 1)
    assert max(max(row) for row in g.mult) == 1 and s.r == (1,) * 40
    l0 = [[s.d[i] if i == j else -g.mult[i][j] for j in range(1, 40)] for i in range(1, 40)]
    order = critical_group(g, s).order
    assert order == bareiss_det(l0)
    assert order.bit_length() > 150
