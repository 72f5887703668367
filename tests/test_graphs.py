"""Graph layer: multigraphs, structures, critical groups, the reduction."""

from __future__ import annotations

import random
import re
from enum import IntEnum
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critgroups.graphs import (
    ArithmeticalStructure,
    CriticalGroup,
    GraphError,
    Multigraph,
    StructureError,
    critical_group,
    laplacian_structure,
    operation_matrix_consistency,
    star_clique_reduction,
    structure_matrix,
    validate_structure,
)
from critgroups.linalg import IntegerMatrix, SnfResult

from conftest import (
    NONSIMPLE_A_D,
    NONSIMPLE_A_R,
    NONSIMPLE_B_D,
    NONSIMPLE_B_R,
    SIMPLE7_D,
    SIMPLE7_R,
    seeded_structure,
)

# ---------------------------------------------------------------------------
# multigraph construction


def test_multigraph_validation_errors():
    with pytest.raises(GraphError):
        Multigraph(())
    with pytest.raises(GraphError):
        Multigraph(((0, 1), (1,)))
    with pytest.raises(GraphError):
        Multigraph(((1,),))  # loop
    with pytest.raises(GraphError):
        Multigraph(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(GraphError):
        Multigraph(((0, -1), (-1, 0)))
    with pytest.raises(GraphError):
        Multigraph(((0, 0), (0, 0)))  # two isolated vertices


def test_multigraph_rejects_bool_multiplicities():
    # True == 1, but a saved graph would read `true` and could not be loaded
    with pytest.raises(GraphError, match="integers"):
        Multigraph(((0, True), (True, 0)))


def test_multigraph_is_a_value_error_subtype():
    # callers that only care about "bad input" can catch ValueError
    assert issubclass(GraphError, ValueError)
    assert issubclass(StructureError, ValueError)


def test_from_edges_sums_parallel_edges():
    g = Multigraph.from_edges(2, [(0, 1, 2), (1, 0, 3)])
    assert g.mult == ((0, 5), (5, 0))
    assert g.degree(0) == 5
    assert g.edge_list() == [(0, 1, 5)]


def test_from_edges_errors():
    with pytest.raises(GraphError):
        Multigraph.from_edges(2, [(0, 2, 1)])
    with pytest.raises(GraphError):
        Multigraph.from_edges(2, [(1, 1, 1)])
    with pytest.raises(GraphError):
        Multigraph.from_edges(2, [(0, 1, 0)])
    # True would be summed into the int 1, a float endpoint would index a list
    with pytest.raises(GraphError, match="integers"):
        Multigraph.from_edges(3, [(0, 1, True), (1, 2, 1)])
    with pytest.raises(GraphError, match="integers"):
        Multigraph.from_edges(3, [(0, 1.0, 1), (1, 2, 1)])
    with pytest.raises(GraphError, match="integers"):
        Multigraph.from_edges(2, [(0, 1, 1.5)])


class Small(IntEnum):
    ONE = 1
    TWO = 2


def test_from_edges_accepts_int_subclasses_and_rejects_bool_float_and_str():
    assert Multigraph.from_edges(3, [(0, Small.ONE, Small.TWO), (Small.ONE, 2, 1)]).mult == (
        (0, 2, 0),
        (2, 0, 1),
        (0, 1, 0),
    )
    for edge in ((0, 1, True), (False, 1, 1), (0, 1.0, 1), (0, 1, 2.0), ("0", 1, 1), (0, 1, "2")):
        message = f"edge endpoints and multiplicities must be integers, got {edge!r}"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Multigraph.from_edges(2, [edge])


def test_from_edges_rejects_too_few_edges_before_allocating():
    # an n x n matrix for this n would need 10**24 cells
    with pytest.raises(GraphError, match="graph must be connected"):
        Multigraph.from_edges(10**12, [(0, 1, 1)])
    with pytest.raises(GraphError, match="out of range"):
        Multigraph.from_edges(10**12, [(0, 10**12, 1)])
    with pytest.raises(GraphError, match="graph must be connected"):
        Multigraph.from_edges(4, [(0, 1, 1), (1, 0, 1), (2, 3, 1)])


def test_builders():
    p4 = Multigraph.path(4)
    assert p4.edge_list() == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    c4 = Multigraph.cycle(4)
    assert c4.edge_list() == [(0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)]
    assert all(c4.degree(i) == 2 for i in range(4))
    with pytest.raises(GraphError):
        Multigraph.cycle(2)
    single = Multigraph(((0,),))
    assert single.n == 1
    assert single.edge_list() == []


# ---------------------------------------------------------------------------
# structures and validation


def test_structure_invariants():
    s = ArithmeticalStructure((0,), (1,))
    assert s.n == 1
    with pytest.raises(StructureError):
        ArithmeticalStructure((1, 2), (1,))
    with pytest.raises(StructureError):
        ArithmeticalStructure((), ())
    with pytest.raises(StructureError):
        ArithmeticalStructure((-1,), (1,))
    with pytest.raises(StructureError):
        ArithmeticalStructure((1, 1), (0, 1))
    with pytest.raises(StructureError):
        ArithmeticalStructure((1, 1), (2, 4))  # gcd 2


def test_structure_rejects_bool_entries():
    with pytest.raises(StructureError, match="d entries"):
        ArithmeticalStructure((True, 1), (1, 1))
    with pytest.raises(StructureError, match="r entries"):
        ArithmeticalStructure((1, 1), (1, True))
    with pytest.raises(StructureError):
        ArithmeticalStructure((True, 1), (1, True))
    # the same vectors, unwrapped, are not a structure on the one-edge graph either
    g = Multigraph(((0, 1), (1, 0)))
    assert validate_structure(g, (1, 1), (1, True)).vertex == 1
    assert validate_structure(g, (True, 1), (1, 1)).vertex == 0


def test_validate_structure_accepts_the_examples(simple7, nonsimple_a, nonsimple_b):
    for g, s in (simple7, nonsimple_a, nonsimple_b):
        assert validate_structure(g, s.d, s.r) is None


def test_validate_structure_reports_first_broken_vertex(nonsimple):
    d = list(NONSIMPLE_A_D)
    d[2] += 1
    violation = validate_structure(nonsimple, d, NONSIMPLE_A_R)
    assert violation is not None
    assert violation.vertex == 2
    assert "vertex 2" in violation.message


def test_validate_structure_reports_gcd_failure(nonsimple):
    # scaling r preserves every vertex equation but breaks primitivity
    r = tuple(2 * x for x in NONSIMPLE_B_R)
    violation = validate_structure(nonsimple, NONSIMPLE_B_D, r)
    assert violation is not None
    assert violation.vertex is None
    assert "gcd" in violation.message


def test_validate_structure_reports_bad_entries(nonsimple):
    bad_r = validate_structure(nonsimple, NONSIMPLE_A_D, (1, 3, 0, 2))
    assert bad_r is not None and bad_r.vertex == 2
    bad_d = validate_structure(nonsimple, (8, -1, 4, 8), NONSIMPLE_A_R)
    assert bad_d is not None and bad_d.vertex == 1
    with pytest.raises(ValueError):
        validate_structure(nonsimple, (1, 2), (1, 1))


def test_laplacian_structure(nonsimple):
    s = laplacian_structure(nonsimple)
    assert s.d == (2, 8, 8, 4)
    assert s.r == (1, 1, 1, 1)
    assert validate_structure(nonsimple, s.d, s.r) is None
    triangle = laplacian_structure(Multigraph.cycle(3))
    assert triangle.d == (2, 2, 2)


# ---------------------------------------------------------------------------
# structure matrices


def test_structure_matrix_frozen(nonsimple_a, simple7):
    g, s = nonsimple_a
    assert structure_matrix(g, s).entries == (
        (8, -1, -1, 0),
        (-1, 10, -5, -2),
        (-1, -5, 4, -2),
        (0, -2, -2, 8),
    )
    g7, s7 = simple7
    assert structure_matrix(g7, s7).entries == (
        (3, 0, -1, 0, 0, 0, 0),
        (0, 3, -1, 0, 0, 0, 0),
        (-1, -1, 1, -1, 0, 0, 0),
        (0, 0, -1, 4, 0, 0, -1),
        (0, 0, 0, 0, 2, -1, -1),
        (0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, -1, -1, -1, 3),
    )


def test_structure_matrix_moves_chosen_vertex_last(nonsimple_a):
    g, s = nonsimple_a
    reordered = structure_matrix(g, s, last_vertex=2)
    assert reordered.entries == (
        (8, -1, 0, -1),
        (-1, 10, -2, -5),
        (0, -2, 8, -2),
        (-1, -5, -2, 4),
    )
    # moving the already-last vertex is a no-op
    assert structure_matrix(g, s, last_vertex=3) == structure_matrix(g, s)


def test_structure_matrix_rejects_invalid_input(nonsimple):
    s = ArithmeticalStructure((1, 1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(StructureError):
        structure_matrix(nonsimple, s)
    good = ArithmeticalStructure(NONSIMPLE_A_D, NONSIMPLE_A_R)
    with pytest.raises(IndexError, match=r"vertex 4 out of range 0\.\.3"):
        structure_matrix(nonsimple, good, last_vertex=4)
    for v in (True, False, 1.0):
        with pytest.raises(TypeError):
            structure_matrix(nonsimple, good, last_vertex=v)


# ---------------------------------------------------------------------------
# critical groups


def test_critical_group_frozen(nonsimple_a, nonsimple_b, simple7):
    for pair, order in ((nonsimple_a, 24), (nonsimple_b, 24)):
        cg = critical_group(*pair)
        assert cg.invariant_factors == (1, 1, 24)
        assert cg.order == order
        assert cg.describe() == "Z/24"
    cg7 = critical_group(*simple7)
    assert cg7.invariant_factors == (1, 1, 1, 1, 3, 3)
    assert cg7.order == 9
    assert cg7.describe() == "Z/3 x Z/3"


def test_critical_group_of_single_vertex():
    g = Multigraph(((0,),))
    cg = critical_group(g, ArithmeticalStructure((0,), (1,)))
    assert cg.invariant_factors == ()
    assert cg.order == 1
    assert cg.describe() == "trivial"


def test_critical_group_of_laplacians():
    # the Laplacian critical group of a cycle is cyclic of order n
    for n in range(3, 7):
        g = Multigraph.cycle(n)
        assert critical_group(g, laplacian_structure(g)).order == n
    # trees have trivial Laplacian critical group
    for n in range(2, 6):
        g = Multigraph.path(n)
        assert critical_group(g, laplacian_structure(g)).describe() == "trivial"


@given(
    st.lists(st.integers(-3, 3) | st.integers(-(10**30), 10**30), max_size=7),
    st.sampled_from((1, -1, 10**40)),
)
@example([], 1)
@example([0, 0, 0], 1)
@example([0, 0, 0], 10**40)
@example([1, 2, 0], 10**40)
@example([-2, 4, -8], 10**40)
@settings(max_examples=300)
def test_order_from_snf_is_the_product_of_any_diagonal(diag, scale):
    # the witness tests hand from_snf corrupted diagonals (an entry +1, or 0)
    diag = tuple(x * scale for x in diag)
    n = len(diag) + 1
    group = CriticalGroup.from_snf(SnfResult(diag + (0,), n - 1), n)
    assert group.invariant_factors == diag
    assert group.order == prod(diag)


def test_describe_drops_unit_factors():
    assert CriticalGroup((1, 1, 6), 6).describe() == "Z/6"
    assert CriticalGroup((), 1).describe() == "trivial"


# ---------------------------------------------------------------------------
# the reduction


def test_reduction_frozen_nonsimple(nonsimple_a, nonsimple_b):
    g, s = nonsimple_a
    res = star_clique_reduction(g, s, 3)
    assert res.graph.edge_list() == [(0, 1, 8), (0, 2, 8), (1, 2, 44)]
    assert res.structure.d == (64, 76, 28)
    assert res.structure.r == (1, 3, 5)
    assert res.r_divisor == 1
    assert critical_group(res.graph, res.structure).invariant_factors == (4, 48)

    g, s = nonsimple_b
    res = star_clique_reduction(g, s, 3)
    assert res.graph.edge_list() == [(0, 1, 8), (0, 2, 8), (1, 2, 44)]
    assert res.structure.d == (16, 52, 52)
    assert res.structure.r == (1, 1, 1)
    assert res.r_divisor == 2
    assert critical_group(res.graph, res.structure).invariant_factors == (4, 192)


def test_reduction_frozen_simple7(simple7):
    g, s = simple7
    res = star_clique_reduction(g, s, 6)
    assert res.graph.edge_list() == [
        (0, 2, 3),
        (1, 2, 3),
        (2, 3, 3),
        (3, 4, 1),
        (3, 5, 1),
        (4, 5, 4),
    ]
    assert res.structure.d == (9, 9, 3, 11, 5, 5)
    assert res.structure.r == (1, 1, 3, 1, 1, 1)
    assert res.r_divisor == 1
    cg = critical_group(res.graph, res.structure)
    assert cg.invariant_factors == (1, 3, 3, 9, 9)
    assert cg.describe() == "Z/3 x Z/3 x Z/9 x Z/9"


def test_reduction_at_interior_vertex(nonsimple_a):
    g, s = nonsimple_a
    res = star_clique_reduction(g, s, 0)
    assert res.graph.edge_list() == [(0, 1, 41), (0, 2, 16), (1, 2, 16)]
    assert res.structure.d == (79, 31, 64)
    assert res.structure.r == (3, 5, 2)
    assert res.r_divisor == 1


def test_reduction_to_single_vertex():
    g = Multigraph.path(2)
    res = star_clique_reduction(g, laplacian_structure(g), 1)
    assert res.graph.n == 1
    assert res.structure.d == (0,)
    assert res.structure.r == (1,)
    assert res.r_divisor == 1


def test_reduction_rescales_r_exactly_once(nonsimple_b):
    g, s = nonsimple_b
    res = star_clique_reduction(g, s, 3)
    assert gcd(*res.structure.r) == 1


def test_reduction_errors(nonsimple):
    single = Multigraph(((0,),))
    with pytest.raises(GraphError):
        star_clique_reduction(single, ArithmeticalStructure((0,), (1,)), 0)
    good = ArithmeticalStructure(NONSIMPLE_A_D, NONSIMPLE_A_R)
    with pytest.raises(IndexError, match=r"vertex 4 out of range 0\.\.3"):
        star_clique_reduction(nonsimple, good, 4)
    for v in (True, False, 1.0):
        with pytest.raises(TypeError):
            star_clique_reduction(nonsimple, good, v)
    bad = ArithmeticalStructure((1, 1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(StructureError):
        star_clique_reduction(nonsimple, bad, 0)


def oracle_reduction(g: Multigraph, s: ArithmeticalStructure, v: int):
    """Independent reduction built over original vertex labels, then relabeled."""
    keep = [i for i in range(g.n) if i != v]
    dv = s.d[v]
    new_mult = {
        (a, b): g.mult[a][b] * dv + g.mult[a][v] * g.mult[v][b]
        for a in keep
        for b in keep
        if a != b
    }
    new_d = {a: s.d[a] * dv - g.mult[a][v] ** 2 for a in keep}
    div = gcd(*(s.r[a] for a in keep))
    new_r = {a: s.r[a] // div for a in keep}
    rows = tuple(
        tuple(0 if a == b else new_mult[(a, b)] for b in keep) for a in keep
    )
    return rows, tuple(new_d[a] for a in keep), tuple(new_r[a] for a in keep), div


@pytest.mark.parametrize("vertex", range(4))
def test_reduction_matches_label_free_oracle(nonsimple_a, vertex):
    g, s = nonsimple_a
    res = star_clique_reduction(g, s, vertex)
    mult, d, r, div = oracle_reduction(g, s, vertex)
    assert res.graph.mult == mult
    assert res.structure.d == d
    assert res.structure.r == r
    assert res.r_divisor == div


def test_reduction_output_revalidates(simple7, nonsimple_a, nonsimple_b):
    for g, s in (simple7, nonsimple_a, nonsimple_b):
        for v in range(g.n):
            res = star_clique_reduction(g, s, v)
            assert validate_structure(res.graph, res.structure.d, res.structure.r) is None


# ---------------------------------------------------------------------------
# matrix/graph consistency of the reduction


def test_operation_matrix_consistency_everywhere(simple7, nonsimple_a, nonsimple_b):
    cases = [simple7, nonsimple_a, nonsimple_b]
    for g in (Multigraph.path(5), Multigraph.cycle(4), Multigraph.cycle(5)):
        cases.append((g, laplacian_structure(g)))
    for g, s in cases:
        for v in range(g.n):
            assert operation_matrix_consistency(g, s, v), (s.d, s.r, v)


def test_reduced_matrix_is_the_condensation(nonsimple_a):
    from critgroups.linalg import chio_condense

    g, s = nonsimple_a
    res = star_clique_reduction(g, s, 1)
    lhs = structure_matrix(res.graph, res.structure)
    rhs = chio_condense(structure_matrix(g, s, last_vertex=1))
    assert lhs == rhs
    assert isinstance(lhs, IntegerMatrix)


# ---------------------------------------------------------------------------
# the reduction on the primitive part: inputs whose content h exceeds 1


def content(g: Multigraph, s: ArithmeticalStructure) -> int:
    """h, the gcd of d and of every multiplicity: the content of L."""
    return gcd(*s.d, *(x for row in g.mult for x in row))


def scaled(g: Multigraph, s: ArithmeticalStructure, h: int):
    """(h mult, h d, r): a structure whenever (mult, d, r) is one."""
    mult = tuple(tuple(h * x for x in row) for row in g.mult)
    return Multigraph(mult), ArithmeticalStructure(tuple(h * x for x in s.d), s.r)


@pytest.mark.parametrize("h", [2, 6, 10**40])
def test_reduction_of_scaled_input_is_h_squared_times_the_reduction(simple7, nonsimple_a, nonsimple_b, h):
    # every multiplicity of the doubled path is even, but d is not: its content is 1
    doubled_path = Multigraph.from_edges(3, [(0, 1, 2), (1, 2, 2)]), ArithmeticalStructure((1, 8, 1), (2, 1, 2))
    for g, s in (simple7, nonsimple_a, nonsimple_b, doubled_path):
        big_g, big_s = scaled(g, s, h)
        assert content(big_g, big_s) == h * content(g, s)
        for v in range(g.n):
            res = star_clique_reduction(big_g, big_s, v)
            mult, d, r, div = oracle_reduction(big_g, big_s, v)
            assert (res.graph.mult, res.structure.d, res.structure.r, res.r_divisor) == (mult, d, r, div)
            small = star_clique_reduction(g, s, v)
            assert res.graph.mult == tuple(tuple(h * h * x for x in row) for row in small.graph.mult)
            assert res.structure.d == tuple(h * h * x for x in small.structure.d)
            assert res.structure.r == small.structure.r
            assert res.r_divisor == small.r_divisor


@pytest.mark.parametrize("seed, r_max", [(0, 1), (1, 1), (2, 2)])
def test_reduction_chain_matches_oracles_on_the_divided_path(seed, r_max):
    from critgroups.linalg import chio_condense

    rng = random.Random(seed)
    g, s = seeded_structure(rng, 12, r_max, 1)
    contents = []
    while g.n > 3:
        v = rng.randrange(g.n)
        contents.append(content(g, s))
        res = star_clique_reduction(g, s, v)
        mult, d, r, div = oracle_reduction(g, s, v)
        assert (res.graph.mult, res.structure.d, res.structure.r, res.r_divisor) == (mult, d, r, div)
        assert res.matrix() == chio_condense(structure_matrix(g, s, last_vertex=v))
        g, s = res.graph, res.structure
    # the last reductions divide out an h > 1, and their entries pass 1,000 bits
    assert all(h > 1 for h in contents[-3:]), contents
    assert max(x.bit_length() for x in s.d) > 1000


@pytest.mark.parametrize("seed, n, h", [(0, 17, 1), (1, 15, 1), (2, 14, 6), (3, 13, 6), (4, 12, 10**40)])
def test_seeded_primitive_part_matches_a_fresh_instance_down_to_one_vertex(seed, n, h):
    """A reduction seeds its output with (h^2 g, Q / g); an output's group and Smith form read only that.

    At every step of a chain the seeded instance must agree with a fresh one,
    which takes the content of the full L, and with the Smith form of the full
    matrix; so must the vertex record of the step's reduction, whose group and
    D_k of L' come from the output instance that the reduction seeds.  The
    chains end at one vertex, d = (0,), whose content is 0.
    """
    from itertools import accumulate
    from operator import mul

    from critgroups import graphs
    from critgroups.linalg import smith_normal_form

    rng = random.Random(seed)
    g, s = scaled(*seeded_structure(rng, n, 2, 1), h)
    seeds = []
    while True:
        inst, fresh = graphs.instance_of(g, s), graphs._Instance(g, s)
        assert inst.primitive == fresh.primitive
        assert inst.snf == fresh.snf == smith_normal_form(structure_matrix(g, s))
        assert inst.group == fresh.group == CriticalGroup.from_snf(inst.snf, g.n)
        if g.n == 1:
            break
        hh, u = inst.primitive[0] ** 2, rng.randrange(g.n)
        res = star_clique_reduction(g, s, u)
        record, out = inst.vertex(u), graphs._Instance(res.graph, res.structure)
        snf_p = smith_normal_form(res.matrix())
        assert record.dkp == out.dk == tuple(accumulate(snf_p.diag, mul, initial=1))
        assert record.after == out.group == CriticalGroup.from_snf(snf_p, g.n - 1)
        g, s = res.graph, res.structure
        seeds.append(graphs._last_instance.primitive[0] // hh)
    assert s.d == (0,) and inst.primitive[0] == 0 and inst.group == CriticalGroup((), 1)
    # Q = L' / h^2 has a content g > 1 at some steps, so the seed's factor g is exercised
    assert any(x > 1 for x in seeds[:-1]), seeds
