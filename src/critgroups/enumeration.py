"""Exhaustive search for arithmetical structures with bounded r entries.

The search space for a graph on n vertices is the box [1, r_max]^n of
candidate r-vectors; every structure whose r entries all stay within the
bound is found, and nothing outside the box is explored.  Beyond the
bound a graph generally carries further structures, so callers must treat
the result as "complete up to r_max", never as the full (finite) set.

The search assigns r[0], r[1], ... in turn.  Vertex i's condition, r[i]
divides S_i = sum over j of mult[i][j] * r[j], can be tested once its
last neighbour k has a value.  If k > i, the condition is the congruence

    mult[i][k] * r[k] == -p_i   (mod r[i]),

where p_i is the part of S_i already assigned.  With h = gcd(mult[i][k],
r[i]) it has no solution unless h divides p_i, and otherwise its
solutions are exactly one residue class modulo r[i] / h.  So each depth
steps r[k] through the residue class of its largest modulus and tests the
other congruences (and r[k] | S_k when k is its own last neighbour) with
one modular test each.  Every value it skips fails a condition, so the
search is still exhaustive over the box.
"""

from __future__ import annotations

import random
from math import gcd
from operator import mul

from ._record import Record
from .graphs import ArithmeticalStructure, Multigraph


class EnumerationQuery(Record):
    __slots__ = ("graph", "r_max")

    def __init__(self, graph: Multigraph, r_max: int) -> None:
        self._set(graph, r_max)
        if isinstance(self.r_max, bool) or not isinstance(self.r_max, int):
            raise ValueError(f"r_max must be an int, got {self.r_max!r}")
        if self.r_max < 1:
            raise ValueError(f"r_max must be at least 1, got {self.r_max}")


def enumerate_structures(query: EnumerationQuery) -> list[ArithmeticalStructure]:
    """All structures with max(r) <= r_max, sorted lexicographically by r.

    Depth-first search assigns r vertex by vertex.  When r[k] is the last
    neighbour of an earlier vertex i to get a value, i's condition becomes
    a congruence on r[k] with p_i, the rest of i's neighbour sum, computed
    once per node: the node is pruned when gcd(mult[i][k], r[i]) does not
    divide p_i, and otherwise r[k] steps through the solutions of the
    congruence with the largest modulus, each checked against the others
    and, when k has no later neighbour, against r[k] | S_k.  Only values
    that fail some vertex condition are skipped, and every depth steps in
    increasing order, so the result is every structure in [1, r_max]^n,
    already sorted.  The gcd(r) = 1 condition can only be tested on full
    assignments.
    """
    g = query.graph
    n = g.n
    r_max = query.r_max
    # (indices, multiplicities) of each vertex's neighbours
    neighbours = [
        (tuple(j for j, m in enumerate(row) if m), tuple(m for m in row if m)) for row in g.mult
    ]

    # closing[k] holds (i, mult[i][k], i's other neighbours) for each i < k
    # whose last neighbour is k; closes_self[k] says k has no later neighbour.
    closing: list[list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]] = [[] for _ in range(n)]
    closes_self = [True] * n
    for i, (js, ms) in enumerate(neighbours):
        last = max(js, default=i)
        if last > i:
            closes_self[i] = False
            others = tuple(j for j in js if j != last)
            closing[last].append((i, g.mult[i][last], others, tuple(g.mult[i][j] for j in others)))

    results: list[ArithmeticalStructure] = []
    r = [0] * n
    at = r.__getitem__

    def weighted(js: tuple[int, ...], ms: tuple[int, ...]) -> int:
        return sum(map(mul, ms, map(at, js)))

    def extend(k: int) -> None:
        if k == n:
            if gcd(*r) == 1:
                d = tuple(weighted(*neighbours[i]) // r[i] for i in range(n))
                results.append(ArithmeticalStructure(d, tuple(r)))
            return
        # Each closing vertex i leaves r[k] one residue class modulo r[i] / h;
        # r[k] steps through the class with the largest modulus.
        step, residue = 1, 0
        classes = []
        for i, m, js, ms in closing[k]:
            ri = r[i]
            p = weighted(js, ms)
            h = gcd(m, ri)
            if p % h:
                return
            modulus = ri // h
            want = -(p // h) * pow(m // h, -1, modulus) % modulus
            if modulus > step:
                if step > 1:
                    classes.append((step, residue))
                step, residue = modulus, want
            elif modulus > 1:
                classes.append((modulus, want))
        values = range(residue or step, r_max + 1, step)
        if closes_self[k]:
            total = weighted(*neighbours[k])
            values = [value for value in values if total % value == 0]
        for modulus, want in classes:
            values = [value for value in values if value % modulus == want]
        for value in values:
            r[k] = value
            extend(k + 1)

    extend(0)
    del extend  # extend holds itself through its closure cell; emptying the cell breaks that cycle
    return results


def sample_structure(query: EnumerationQuery, seed: int) -> ArithmeticalStructure:
    """Uniform draw from `enumerate_structures(query)`, reproducible by seed."""
    found = enumerate_structures(query)
    if not found:
        raise ValueError("no structures within the bound")
    rng = random.Random(seed)
    return found[rng.randrange(len(found))]
