"""Shared builders for the two worked examples and for seeded structures, oracles used by several modules, and a fresh package memo for every test."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

from critgroups import ArithmeticalStructure, Multigraph, graphs, verify

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

# 7-vertex simple graph: two leaves joined to a cut vertex, a bridge, and a
# triangle with an extra edge.  Carries the structure d=(3,3,1,4,2,2,3),
# r=(1,1,3,1,1,1,1).
SIMPLE7_EDGES = [(0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 6, 1), (4, 5, 1), (4, 6, 1), (5, 6, 1)]
SIMPLE7_D = (3, 3, 1, 4, 2, 2, 3)
SIMPLE7_R = (1, 1, 3, 1, 1, 1, 1)

# 4-vertex multigraph with a quintuple edge and two double edges; carries two
# different structures with the same critical group Z/24.
NONSIMPLE_EDGES = [(0, 1, 1), (0, 2, 1), (1, 2, 5), (1, 3, 2), (2, 3, 2)]
NONSIMPLE_A_D = (8, 10, 4, 8)
NONSIMPLE_A_R = (1, 3, 5, 2)
NONSIMPLE_B_D = (2, 7, 7, 8)
NONSIMPLE_B_R = (2, 2, 2, 1)


@pytest.fixture
def simple7() -> tuple[Multigraph, ArithmeticalStructure]:
    g = Multigraph.from_edges(7, SIMPLE7_EDGES)
    return g, ArithmeticalStructure(SIMPLE7_D, SIMPLE7_R)


@pytest.fixture
def nonsimple() -> Multigraph:
    return Multigraph.from_edges(4, NONSIMPLE_EDGES)


@pytest.fixture
def nonsimple_a(nonsimple) -> tuple[Multigraph, ArithmeticalStructure]:
    return nonsimple, ArithmeticalStructure(NONSIMPLE_A_D, NONSIMPLE_A_R)


@pytest.fixture
def nonsimple_b(nonsimple) -> tuple[Multigraph, ArithmeticalStructure]:
    return nonsimple, ArithmeticalStructure(NONSIMPLE_B_D, NONSIMPLE_B_R)


def seeded_structure(rng: random.Random, n: int, r_max: int, c_max: int) -> tuple[Multigraph, ArithmeticalStructure]:
    """A structure that is valid by construction.

    Weights c_ij >= 0 on a random spanning tree plus extra edges, and r
    with one r_i = 1, give mult_ij = c_ij r_i r_j and d_i = sum_j c_ij r_j^2,
    so d_i r_i = sum_j mult_ij r_j and gcd(r) = 1.
    """
    c = [[0] * n for _ in range(n)]
    for k in range(1, n):
        j = rng.randrange(k)
        c[k][j] = c[j][k] = rng.randint(1, c_max)
    for i in range(n):
        for j in range(i + 1, n):
            if not c[i][j] and rng.random() < 0.5:
                c[i][j] = c[j][i] = rng.randint(1, c_max)
    r = [rng.randint(1, r_max) for _ in range(n)]
    r[rng.randrange(n)] = 1
    mult = tuple(tuple(c[i][j] * r[i] * r[j] for j in range(n)) for i in range(n))
    d = tuple(sum(c[i][j] * r[j] * r[j] for j in range(n)) for i in range(n))
    return Multigraph(mult), ArithmeticalStructure(d, tuple(r))


def cofactor_det(rows: list[list[int]]) -> int:
    """Textbook cofactor expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * cofactor_det(sub)
    return total


def fibonacci(n: int) -> int:
    """F_n, with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def failing_property(pid: verify.PropertyId) -> verify._Property:
    """A row of the property table for ``pid`` that applies to every input and fails on each.

    Patched over a row of ``verify._MATRIX_PROPERTIES`` or over
    ``verify._CONJ_MINORS``, it injects a synthetic failure into the
    public checks and into a fuzz campaign, which both read the table.
    """
    return verify._Property(pid, lambda x: True, lambda x: ((False, False, ("note",), ("synthetic",)),))


def forget_memos() -> None:
    """Drop the instance that the package keeps from its last call."""
    graphs._last_instance = None


@pytest.fixture(autouse=True)
def fresh_memos():
    """No test sees a value that another test left memoized."""
    forget_memos()
    yield
    forget_memos()
