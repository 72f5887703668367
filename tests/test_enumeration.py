"""Enumeration tests against a plain box-scan oracle."""

from __future__ import annotations

import gc
import random
from itertools import product
from math import comb, gcd

import pytest

from critgroups.enumeration import EnumerationQuery, enumerate_structures, sample_structure
from critgroups.graphs import Multigraph, laplacian_structure, validate_structure

from conftest import NONSIMPLE_EDGES, fibonacci


def brute_enumerate(g: Multigraph, r_max: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Walk the whole box [1, r_max]^n and keep the valid (d, r) pairs."""
    found = []
    for r in product(range(1, r_max + 1), repeat=g.n):
        if gcd(*r) != 1:
            continue
        d = []
        for i in range(g.n):
            total = sum(m * r[j] for j, m in enumerate(g.mult[i]))
            if total % r[i]:
                break
            d.append(total // r[i])
        else:
            found.append((tuple(d), r))
    return sorted(found, key=lambda pair: pair[1])


def random_multigraphs(seed: int, count: int) -> list[tuple[Multigraph, int]]:
    """Seeded connected multigraphs on 2..5 vertices, multiplicities 1..3, with r_max <= 6."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(2, 5)
        order = rng.sample(range(n), n)
        # a random spanning tree, then a few extra (possibly parallel) edges
        edges = [(order[i], order[rng.randrange(i)], rng.randint(1, 3)) for i in range(1, n)]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(n), 2)
            edges.append((i, j, rng.randint(1, 3)))
        cases.append((Multigraph.from_edges(n, edges), rng.randint(1, 6)))
    return cases


@pytest.mark.parametrize(
    "graph, r_max",
    [
        (Multigraph(((0,),)), 3),
        (Multigraph.path(2), 5),
        (Multigraph.path(3), 3),
        (Multigraph.path(4), 4),
        (Multigraph.cycle(3), 6),
        (Multigraph.cycle(4), 4),
        (Multigraph.from_edges(4, NONSIMPLE_EDGES), 3),
        # double and triple edges: gcd(mult, r[i]) > 1, and its prune on p_i
        (Multigraph.from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 2)]), 8),
        (Multigraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]), 6),  # K_{1,3}, hub first
        (Multigraph.from_edges(4, [(3, 0, 1), (3, 1, 1), (3, 2, 1)]), 6),  # K_{1,3}, hub last
        (Multigraph.from_edges(4, [(i, j, 1) for i in range(4) for j in range(i)]), 6),  # K_4
        (Multigraph.cycle(4), 1),
        (Multigraph.from_edges(4, NONSIMPLE_EDGES), 1),
    ]
    + random_multigraphs(seed=2018, count=30),
)
def test_enumeration_matches_box_scan(graph, r_max):
    got = enumerate_structures(EnumerationQuery(graph, r_max))
    assert [(s.d, s.r) for s in got] == brute_enumerate(graph, r_max)


def test_enumeration_leaves_no_reference_cycle():
    """Everything a search allocates is freed when it returns, with no garbage collection."""
    query = EnumerationQuery(Multigraph.cycle(4), 6)
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_structures(query)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_single_vertex_has_exactly_the_trivial_structure():
    for r_max in (1, 2, 5):
        got = enumerate_structures(EnumerationQuery(Multigraph(((0,),)), r_max))
        assert [(s.d, s.r) for s in got] == [((0,), (1,))]


def test_path3_frozen():
    got = enumerate_structures(EnumerationQuery(Multigraph.path(3), 3))
    assert [(s.d, s.r) for s in got] == [
        ((1, 2, 1), (1, 1, 1)),
        ((2, 1, 2), (1, 2, 1)),
    ]


def test_triangle_frozen_count():
    got = enumerate_structures(EnumerationQuery(Multigraph.cycle(3), 6))
    assert len(got) == 10
    r_vectors = [s.r for s in got]
    # the Laplacian, the three r-permutations of (1, 1, 2), and the six of (1, 2, 3)
    assert sorted(tuple(sorted(r)) for r in r_vectors).count((1, 1, 2)) == 3
    assert sorted(tuple(sorted(r)) for r in r_vectors).count((1, 2, 3)) == 6
    assert (1, 1, 1) in r_vectors


def test_every_result_validates():
    for graph, r_max in (
        (Multigraph.path(4), 6),
        (Multigraph.cycle(4), 6),
        (Multigraph.from_edges(4, NONSIMPLE_EDGES), 4),
    ):
        found = enumerate_structures(EnumerationQuery(graph, r_max))
        assert found, "expected at least the Laplacian"
        for s in found:
            assert validate_structure(graph, s.d, s.r) is None


def test_laplacian_always_present():
    for graph in (Multigraph.path(5), Multigraph.cycle(5), Multigraph.from_edges(4, NONSIMPLE_EDGES)):
        found = enumerate_structures(EnumerationQuery(graph, 1))
        assert laplacian_structure(graph) in found


def test_results_grow_monotonically_with_the_bound():
    g = Multigraph.path(3)
    previous: set = set()
    for r_max in range(1, 7):
        current = {(s.d, s.r) for s in enumerate_structures(EnumerationQuery(g, r_max))}
        assert previous <= current
        previous = current


def test_results_are_sorted_and_deterministic():
    query = EnumerationQuery(Multigraph.cycle(4), 5)
    first = enumerate_structures(query)
    second = enumerate_structures(query)
    assert first == second
    assert [s.r for s in first] == sorted(s.r for s in first)


def test_query_validation():
    for r_max in (0, -1, True, False, 2.0, 2.5, "3", None):
        with pytest.raises(ValueError):
            EnumerationQuery(Multigraph.path(3), r_max)


def test_sample_structure_is_seeded():
    query = EnumerationQuery(Multigraph.cycle(3), 6)
    assert sample_structure(query, 123) == sample_structure(query, 123)
    pool = enumerate_structures(query)
    seen = {sample_structure(query, seed).r for seed in range(80)}
    assert seen <= {s.r for s in pool}
    assert len(seen) > 1, "eighty seeds should hit more than one structure"


PATH_CASES = [(n, fibonacci(n), comb(2 * (n - 1), n - 1) // n) for n in range(2, 9)]
CYCLE_CASES = [(n, fibonacci(n + 1), comb(2 * n - 1, n - 1)) for n in range(3, 8)]


@pytest.mark.parametrize(
    "graph, r_max, count",
    [(Multigraph.path(n), r_max, catalan) for n, r_max, catalan in PATH_CASES]
    + [(Multigraph.cycle(n), r_max, binomial) for n, r_max, binomial in CYCLE_CASES],
    ids=[f"P{n}" for n, _, _ in PATH_CASES] + [f"C{n}" for n, _, _ in CYCLE_CASES],
)
def test_closed_form_counts_on_paths_and_cycles(graph, r_max, count):
    """Braun et al., Discrete Math. 2018: P_n carries Catalan C_{n-1} structures
    and C_n carries binom(2n-1, n-1); their largest r entry is F_n on P_n and
    F_{n+1} on C_n, so the search is complete at that bound and not below it."""
    assert len(enumerate_structures(EnumerationQuery(graph, r_max))) == count
    if r_max > 1:  # P_2's bound is 1, the smallest allowed
        assert len(enumerate_structures(EnumerationQuery(graph, r_max - 1))) < count
