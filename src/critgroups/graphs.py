"""Multigraphs, arithmetical structures, and the star-clique reduction.

An arithmetical structure on a connected loopless multigraph G assigns to
each vertex i a nonnegative integer d[i] and a positive integer r[i] such
that

    d[i] * r[i] == sum over j of mult[i][j] * r[j]      for every i,

with gcd of all r[i] equal to 1.  Equivalently (diag(d) - A) r = 0 for the
adjacency matrix A of multiplicities.  The matrix L = diag(d) - A plays
the role of a generalized Laplacian; its Smith normal form yields the
critical group of the structure.

The star-clique reduction removes one vertex v: every pair of neighbors
of v gets new parallel edges routed through v, all other multiplicities
are scaled by d[v], and the r-vector is rescaled to be primitive again.
It generalizes the classical smoothing of a degree-two vertex and works
at any vertex with any d value.

A pair is validated once, when its :class:`_Instance` is built, which
then holds L, its primitive part (h, L / h) with h the content of L,
SNF(L), the group and the reductions, each built on first use; the Smith
form and the reductions run on L / h.  A reduction builds the instance
of its self-checked output, seeded with its primitive part: the one path
to the invariants of L'.  ``instance_of`` keeps the last instance, the
package's one module memo, where ``star_clique_reduction`` records its
output, so a chain of reductions validates each pair once.
"""

from __future__ import annotations

from collections import deque
from functools import cache, cached_property
from itertools import accumulate
from math import gcd, prod
from operator import itemgetter, mul
from typing import TYPE_CHECKING

from ._record import Record

if TYPE_CHECKING:
    from .linalg import IntegerMatrix, SnfResult

# ``linalg`` is imported inside the functions that build or factor matrices,
# so reading a graph file or enumerating structures never loads it.  The
# absolute ``import critgroups.linalg as linalg`` costs about a quarter of
# ``from .linalg import ...`` per call, and ``_matrix`` runs for every matrix.


class GraphError(ValueError):
    """A multigraph invariant (shape, symmetry, looplessness, connectivity) fails."""


class StructureError(ValueError):
    """An arithmetical-structure invariant fails."""


class Multigraph(Record):
    """Connected loopless multigraph given by its symmetric multiplicity matrix.

    ``mult[i][j]`` is the number of parallel edges between vertices i and
    j (0-based).  A single vertex with no edges is the one permitted
    trivial graph.
    """

    __slots__ = ("mult",)

    def __init__(self, mult: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "mult", mult)
        n = len(self.mult)
        if n == 0:
            raise GraphError("graph needs at least one vertex")
        for i, row in enumerate(self.mult):
            if len(row) != n:
                raise GraphError("multiplicity matrix must be square")
            if row[i] != 0:
                raise GraphError(f"loop at vertex {i}: multiplicity matrix diagonal must be zero")
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise GraphError("multiplicities must be integers")
                if x < 0:
                    raise GraphError(f"negative multiplicity at ({i}, {j})")
                if x != self.mult[j][i]:
                    raise GraphError(f"multiplicity matrix not symmetric at ({i}, {j})")
        if not self._connected():
            raise GraphError("graph must be connected")

    def _connected(self) -> bool:
        n = len(self.mult)
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j, x in enumerate(self.mult[i]):
                if x > 0 and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        return all(seen)

    @classmethod
    def from_edges(cls, n: int, edges) -> Multigraph:
        """Build from (i, j, multiplicity) triples with 0-based endpoints.

        Multiplicities of repeated pairs are summed; (i, j) and (j, i)
        name the same undirected edge.  Fewer than n - 1 triples cannot
        connect n vertices, which is reported before the n x n matrix is
        allocated, so a huge n costs nothing.
        """
        edges = list(edges)
        for i, j, m in edges:
            if bool in (type(i), type(j), type(m)) or not (
                isinstance(i, int) and isinstance(j, int) and isinstance(m, int)
            ):
                raise GraphError(f"edge endpoints and multiplicities must be integers, got {(i, j, m)!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge endpoint out of range: ({i}, {j})")
            if i == j:
                raise GraphError(f"loop at vertex {i} not allowed")
            if m < 1:
                raise GraphError(f"edge multiplicity must be positive, got {m}")
        if len(edges) < n - 1:
            raise GraphError("graph must be connected")
        mult = [[0] * n for _ in range(n)]
        for i, j, m in edges:
            mult[i][j] += m
            mult[j][i] += m
        return cls(tuple(tuple(row) for row in mult))

    @classmethod
    def path(cls, n: int) -> Multigraph:
        return cls.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> Multigraph:
        if n < 3:
            raise GraphError("cycle needs at least three vertices")
        return cls.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.mult)

    def degree(self, i: int) -> int:
        return sum(self.mult[i])

    def edge_list(self) -> list[tuple[int, int, int]]:
        """Sorted (i, j, multiplicity) triples with i < j, 0-based."""
        return [
            (i, j, self.mult[i][j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.mult[i][j] > 0
        ]


class ArithmeticalStructure(Record):
    """A (d, r) pair; the graph-independent invariants are enforced here.

    d entries must be nonnegative, r entries positive with gcd 1.  Whether
    (d, r) actually satisfies the vertex equations of a particular graph
    is checked by :func:`validate_structure`.
    """

    __slots__ = ("d", "r")

    def __init__(self, d: tuple[int, ...], r: tuple[int, ...]) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)
        if len(self.d) != len(self.r) or not self.d:
            raise StructureError("d and r must be nonempty vectors of equal length")
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in self.d):
            raise StructureError("d entries must be nonnegative integers")
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in self.r):
            raise StructureError("r entries must be positive integers")
        if gcd(*self.r) != 1:
            raise StructureError(f"r must be primitive, gcd is {gcd(*self.r)}")

    @property
    def n(self) -> int:
        return len(self.d)


class StructureViolation(Record):
    """Why a candidate (d, r) is not an arithmetical structure.

    ``vertex`` is the 0-based failing vertex, or None for a failure of
    the global gcd condition.
    """

    __slots__ = ("vertex", "message")

    def __init__(self, vertex: int | None, message: str) -> None:
        self._set(vertex, message)


class CriticalGroup(Record):
    """Invariant-factor decomposition of the critical group."""

    __slots__ = ("invariant_factors", "order")

    def __init__(self, invariant_factors: tuple[int, ...], order: int) -> None:
        self._set(invariant_factors, order)

    @classmethod
    def from_snf(cls, snf: SnfResult, n: int) -> CriticalGroup:
        """The group of a structure matrix on n vertices from its Smith normal form.

        Such a matrix always has rank n - 1, so the group is the product of
        Z/a over the first n - 1 invariant factors, and its order is their product.  An
        instance hands it the Smith form of its primitive part and scales the group by
        the content itself, so the factors it multiplies stay small.
        """
        if snf.rank != n - 1:
            raise ArithmeticError(
                f"a structure matrix on {n} vertices has Smith rank {snf.rank}, "
                f"expected {n - 1}; this contradicts the structure equations"
            )
        factors = snf.diag[: n - 1]
        return cls(factors, prod(factors))

    def describe(self) -> str:
        nontrivial = [f for f in self.invariant_factors if f != 1]
        if not nontrivial:
            return "trivial"
        return " x ".join(f"Z/{f}" for f in nontrivial)


class ReductionResult(Record):
    """Output of :func:`star_clique_reduction`.

    ``r_divisor`` is the gcd the surviving r entries were divided by to
    make the new r primitive.
    """

    __slots__ = ("graph", "structure", "vertex", "r_divisor")

    def __init__(self, graph: Multigraph, structure: ArithmeticalStructure, vertex: int,
                 r_divisor: int) -> None:
        self._set(graph, structure, vertex, r_divisor)

    def matrix(self) -> IntegerMatrix:
        """L' = diag(d') - A' of the output, which the reduction has already checked."""
        return _matrix(self.graph, self.structure)


def validate_structure(g: Multigraph, d, r) -> StructureViolation | None:
    """Check whether (d, r) is an arithmetical structure on g.

    Returns None if valid, otherwise a report for the first violation
    found (scanning r positivity, d nonnegativity, the per-vertex
    equations, then the gcd condition).
    """
    d = tuple(d)
    r = tuple(r)
    if len(d) != g.n or len(r) != g.n:
        raise ValueError(f"expected vectors of length {g.n}, got d:{len(d)} r:{len(r)}")
    for i, x in enumerate(r):
        if isinstance(x, bool) or not isinstance(x, int) or x < 1:
            return StructureViolation(i, f"r[{i}] = {x!r} is not a positive integer")
    for i, x in enumerate(d):
        if isinstance(x, bool) or not isinstance(x, int) or x < 0:
            return StructureViolation(i, f"d[{i}] = {x!r} is not a nonnegative integer")
    for i in range(g.n):
        lhs = d[i] * r[i]
        rhs = sum(m * r[j] for j, m in enumerate(g.mult[i]))
        if lhs != rhs:
            return StructureViolation(
                i, f"vertex {i}: d[{i}]*r[{i}] = {lhs} but neighbors sum to {rhs}"
            )
    g_all = gcd(*r)
    if g_all != 1:
        return StructureViolation(None, f"gcd(r) = {g_all}, expected 1")
    return None


def laplacian_structure(g: Multigraph) -> ArithmeticalStructure:
    """The Laplacian structure: d = vertex degrees, r = all ones."""
    return ArithmeticalStructure(
        tuple(g.degree(i) for i in range(g.n)), tuple(1 for _ in range(g.n))
    )


def structure_matrix(g: Multigraph, s: ArithmeticalStructure, last_vertex: int | None = None) -> IntegerMatrix:
    """The matrix L = diag(d) - A of a valid structure.

    With ``last_vertex=v`` the rows and columns are reordered so that
    vertex v comes last while all other vertices keep their relative
    order; this is the labeling under which the corner minors D_k* refer
    to v.
    """
    inst = instance_of(g, s)
    if last_vertex is None:
        return inst.matrix
    _check_vertex(last_vertex, g.n)
    return _matrix(g, s, last_vertex)


def _check_vertex(v, n: int) -> None:
    """Raise unless v is a vertex (0-based) of a graph on n vertices: TypeError for a bool or a non-int."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"vertex must be int, got {type(v).__name__}")
    if not 0 <= v < n:
        raise IndexError(f"vertex {v} out of range 0..{n - 1}")


def _matrix(g: Multigraph, s: ArithmeticalStructure, last: int | None = None) -> IntegerMatrix:
    """L of a pair known to be valid; with ``last`` given, L with that vertex last."""
    import critgroups.linalg as linalg

    order = range(g.n) if last is None else [*range(last), *range(last + 1, g.n), last]
    return linalg.IntegerMatrix._unchecked(
        tuple(tuple(s.d[i] if i == j else -g.mult[i][j] for j in order) for i in order)
    )


def critical_group(g: Multigraph, s: ArithmeticalStructure) -> CriticalGroup:
    """Critical group from the Smith normal form of L = diag(d) - A.

    Its order is the gcd of the (n-1) x (n-1) minors of L.
    """
    return instance_of(g, s).group


def star_clique_reduction(g: Multigraph, s: ArithmeticalStructure, v: int) -> ReductionResult:
    """Remove vertex v, rerouting its star through new clique edges.

    For surviving vertices i != j (in their original relative order):

        mult'[i][j] = mult[i][j] * d[v] + mult[i][v] * mult[v][j]
        d'[i]       = d[i] * d[v] - mult[i][v] ** 2
        r'[i]       = r[i] / gcd of surviving r entries

    Every output entry is a 2 x 2 minor of L, so the map is homogeneous
    of degree 2: reducing (h mult, h d, r) gives h^2 times the reduction
    of (mult, d, r), with the same r'.  The formulas therefore run on the
    instance's P = L / h, h the content of L, and each result is multiplied
    by h^2; mult' is symmetric, so that product is taken once, for i < j.
    Each reduction multiplies the entries by d[v], so along a chain h is
    nearly the whole entry: the products are then small by small, and the
    one big product per entry, by h^2, is big by small.

    The output is again a valid arithmetical structure; its matrix L' is
    exactly the condensation of L on the corner entry d[v] (see
    :func:`operation_matrix_consistency`).  It is validated here, at full
    size, and its instance, seeded by :func:`_reduce`, is recorded as the
    last instance, so reducing or factoring it next validates nothing and
    builds no L'.
    """
    global _last_instance
    if g.n < 2:
        raise GraphError("reduction needs at least two vertices")
    _check_vertex(v, g.n)
    result, _last_instance = _reduce(instance_of(g, s), v)
    return result


def _reduce(inst: _Instance, v: int) -> tuple[ReductionResult, _Instance]:
    """:func:`star_clique_reduction` of an instance at a vertex in range, and the output's instance.

    It reads the instance's primitive part (h, P = L / h) and computes the condensation
    Q_ij = P_ij P_vv - P_iv P_vj of P on small ints; L' = h^2 Q.  The output is still
    validated (a violation raises ArithmeticError); its instance is built here, and only
    here, seeded with its primitive part (h^2 g, Q / g), g the content of Q.
    """
    import critgroups.linalg as linalg

    g, s = inst.graph, inst.structure
    h, p = inst.primitive
    rows, star = p.entries, p.entries[v]  # star[i] = P_vi = P_iv, as P is symmetric
    others = [i for i in range(g.n) if i != v]
    q = type(p)._unchecked(
        tuple(tuple(rows[i][j] * star[v] - star[i] * star[j] for j in others) for i in others))
    hh = h * h
    new_mult: list[tuple[int, ...]] = []
    for a, row in enumerate(q.entries):
        # below the diagonal: column a of the rows before; above it: -h^2 Q_ij, computed here, once
        new_mult.append((*map(itemgetter(a), new_mult), 0, *[-hh * x for x in row[a + 1 :]]))
    new_d = tuple([hh * row[a] for a, row in enumerate(q.entries)])
    divisor = gcd(*(s.r[i] for i in others))
    new_r = tuple(s.r[i] // divisor for i in others)
    try:
        new_graph = Multigraph(tuple(new_mult))
    except GraphError as exc:
        raise GraphError(
            f"reduction at vertex {v} produced an invalid graph ({exc}); "
            f"input mult={g.mult}, d={s.d}, r={s.r}"
        ) from exc
    new_structure = ArithmeticalStructure(new_d, new_r)
    violation = validate_structure(new_graph, new_d, new_r)
    if violation is not None:
        raise ArithmeticError(
            f"reduction at vertex {v} produced an invalid structure: {violation.message}; "
            f"input mult={g.mult}, d={s.d}, r={s.r}"
        )
    out = _Instance(new_graph, new_structure, valid=True)
    c, p = linalg._primitive(q)
    out.primitive = hh * c, p
    return ReductionResult(new_graph, new_structure, v, divisor), out


def operation_matrix_consistency(g: Multigraph, s: ArithmeticalStructure, v: int) -> bool:
    """True when L' of the reduced structure equals the condensation of L.

    Both sides are computed independently (one through the graph formulas,
    one through 2 x 2 corner minors of L with v moved last); a mismatch
    would mean an implementation bug, never bad input.
    """
    import critgroups.linalg as linalg

    # the condensation first: the reduction then records its output as the last instance
    rhs = linalg.chio_condense(structure_matrix(g, s, last_vertex=v))
    return star_clique_reduction(g, s, v).matrix() == rhs


_last_instance: _Instance | None = None


def instance_of(g: Multigraph, s: ArithmeticalStructure) -> _Instance:
    """The validated instance of (g, s), reused when the previous call had an equal pair.

    Raises StructureError when s is not a structure on g.
    """
    global _last_instance
    inst = _last_instance
    if inst is None or (inst.graph, inst.structure) != (g, s):
        inst = _last_instance = _Instance(g, s)
    return inst


def _snf_dk(snf: SnfResult) -> tuple[int, ...]:
    """(D_0, ..., D_min): the prefix products of the zero-padded Smith diagonal."""
    return tuple(accumulate(snf.diag, mul, initial=1))


class _Instance:
    """A (graph, structure) pair, validated once, and the invariants of its matrix L.

    Building it raises StructureError unless s is a structure on g, of the
    same size; ``valid=True`` skips that for a reduction's checked output,
    which :func:`_reduce` alone builds, seeded with its ``primitive``.
    L, ``primitive`` = (h, P = L / h) with h the content of L (P is L when
    h is 1), SNF(L) = h SNF(P), ``dk`` = D_k(L), the group (read off SNF(P)
    and scaled by h) and the pivot scan of L (one scan of its minor table:
    the profile of L and every vertex's D_k*) are built on first use.
    SNF(L) and the pivot scan serve every vertex, as moving v last permutes
    rows and columns alike.
    """

    def __init__(self, g: Multigraph, s: ArithmeticalStructure, valid: bool = False) -> None:
        if not valid:
            if s.n != g.n:
                raise StructureError(f"structure has {s.n} vertices but the graph has {g.n}")
            violation = validate_structure(g, s.d, s.r)
            if violation is not None:
                raise StructureError(violation.message)
        self.graph, self.structure = g, s
        self._vertices: dict[int, _Vertex] = {}

    @cached_property
    def matrix(self) -> IntegerMatrix:
        return _matrix(self.graph, self.structure)

    @cached_property
    def primitive(self) -> tuple[int, IntegerMatrix]:
        import critgroups.linalg as linalg

        return linalg._primitive(self.matrix)

    @cached_property
    def primitive_snf(self) -> SnfResult:
        import critgroups.linalg as linalg

        return linalg.smith_normal_form(self.primitive[1])

    @cached_property
    def snf(self) -> SnfResult:
        h, snf = self.primitive[0], self.primitive_snf
        return type(snf)(tuple([h * x for x in snf.diag]), snf.rank)

    @cached_property
    def dk(self) -> tuple[int, ...]:
        return _snf_dk(self.snf)

    @cached_property
    def group(self) -> CriticalGroup:
        h, k = self.primitive[0], CriticalGroup.from_snf(self.primitive_snf, self.graph.n)
        return CriticalGroup(tuple([h * x for x in k.invariant_factors]), h ** (self.graph.n - 1) * k.order)

    @cached_property
    def pivot_scan(self):
        """``pivot_scan()`` is (the profile of L, per v the D_1*..D_n* of L with v last), scanned on
        first call; it refers to L, not to the instance, so vertex records holding it form no cycle."""
        import critgroups.linalg as linalg

        m = self.matrix
        return cache(lambda: linalg._MinorTable(m).pivot_scan())

    def vertex(self, v: int) -> _Vertex:
        """The record of the reduction at v (0-based), built on first use."""
        if v not in self._vertices:
            self._vertices[v] = _Vertex(self, v)
        return self._vertices[v]


class _Vertex:
    """What the operation family compares at one vertex v of an instance.

    ``matrix`` is L with v last, built on first use, ``m`` = d[v] and
    ``g`` the gcd of its last row; ``reduced`` is the instance of the
    output of ``reduction``, as :func:`_reduce` seeds it.  ``alpha``/``alpha_p``
    are the invariant factors of L and of L' (a_k = alpha[k-1]), ``order``/
    ``order_p`` the group orders and ``dk``/``dkp`` D_k(L) and D_k(L'), read
    off the two instances: from SNF(L) and SNF(L').
    D_k*(L with v last) comes on first use from the pivot scan of L, the
    scan whose profile the matrix family reads on L.  No SNF enters it,
    so THM_DKL_A compares values of different engines.
    """

    def __init__(self, inst: _Instance, v: int) -> None:
        import critgroups.linalg as linalg

        g, s = inst.graph, inst.structure
        self.pivot_scan, self.dk = inst.pivot_scan, inst.dk
        self.graph, self.structure, self.v = g, s, v
        self.n, self.m = g.n, s.d[v]
        # row v of L is the last row of L with v last
        self.g = linalg.row_gcd(inst.matrix, v)
        self.gg = self.g * self.g
        self.alpha, self.order = inst.group.invariant_factors, inst.group.order
        # the instance has validated the pair: neither the reduction nor L with v last validates it again
        self.reduction, self.reduced = _reduce(inst, v)
        self.after, self.dkp = self.reduced.group, self.reduced.dk
        self.alpha_p, self.order_p = self.after.invariant_factors, self.after.order

    @property
    def payload(self) -> dict:
        """The input part of a witness, built afresh for each failing report."""
        s = self.structure
        return {"graph_mult": [list(row) for row in self.graph.mult], "d": list(s.d),
                "r": list(s.r), "vertex": self.v}

    @cached_property
    def lower(self) -> int:
        """m^(n-3) |K|, the COR_ORDER lower bound on |K'| (n >= 3)."""
        return self.m ** (self.n - 3) * self.order

    @cached_property
    def upper(self) -> int:
        """g^2 m^(n-3) |K|, the COR_ORDER upper bound on |K'|."""
        return self.gg * self.lower

    @cached_property
    def matrix(self) -> IntegerMatrix:
        """L with v last."""
        return _matrix(self.graph, self.structure, self.v)

    @cached_property
    def dk_star(self) -> tuple[int, ...]:
        """D_k*(L) with v last, k = 1..n."""
        return self.pivot_scan()[1][self.v]
