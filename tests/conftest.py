"""Shared builders for the two worked examples, and fresh package memos for every test."""

from __future__ import annotations

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


def forget_memos() -> None:
    """Drop the valid pairs, instance and minor table that the package keeps from its last calls."""
    graphs._last_valid = ()
    verify._last_instance = None
    verify._last_table = None


@pytest.fixture(autouse=True)
def fresh_memos():
    """No test sees a value that another test left memoized."""
    forget_memos()
    yield
    forget_memos()
