"""Seeded inputs, one-instance runners and independent output checks.

Each workload is a closed loop: one caller in one process runs one
instance at a time.  A workload object builds its instance pool from a
seed (the program only ever sees the generated inputs), runs one
instance while timing the calls into the program, and checks the
outputs with arithmetic of its own.

Only the calls into ``critgroups`` (or the CLI subprocess) are timed;
the benchmark's own checks and digests run outside the timed regions.
Public functions are looked up through their module at call time, so
the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from math import comb, gcd
from pathlib import Path

import critgroups
from critgroups import cli, jsonio
from critgroups.verify import PROVEN_IDS


class Run:
    """Tally of one instance: timed program calls, operations, failures.

    ``digit_limited`` counts saves that raised the interpreter's int-to-str
    digit limit on ints past that limit: the program's known, documented
    behaviour (ROADMAP item 5), checked but not a failed operation.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.ops = 0
        self.failed = 0
        self.digit_limited = 0
        self.problems: list[str] = []
        self._hash = hashlib.blake2b(digest_size=16)

    def call(self, fn, *args):
        """Call into the program, timing the call and counting it as one operation."""
        self.ops += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed += time.perf_counter() - t0

    def expect(self, ok: bool, message: str) -> None:
        """An independent output check; a mismatch is a failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def feed(self, value) -> None:
        """Add a value to the instance digest.

        Ints are hashed through ``int.to_bytes``: ``str()`` of an int above
        4,300 digits raises on this interpreter, and the digest must not.
        """
        h = self._hash
        if isinstance(value, bool):
            h.update(b"T" if value else b"F")
        elif isinstance(value, int):
            h.update(b"i")
            h.update(value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True))
        elif isinstance(value, (str, bytes)):
            data = value.encode() if isinstance(value, str) else value
            h.update(b"s" + len(data).to_bytes(8, "little"))
            h.update(data)
        elif isinstance(value, (tuple, list)):
            h.update(b"(")
            for item in value:
                self.feed(item)
            h.update(b")")
        else:
            raise TypeError(f"cannot digest {type(value).__name__}")

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


CALIBRATION_S = 0.005
_CALIBRATION_MATRIX = [[(i * 7 + j * 3) % 11 - 5 for j in range(7)] for i in range(7)]


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    Small determinants and set building are the kind of work the package
    does.  On a 2-vCPU Xeon VM with Python 3.11 this takes about 5 ms, and
    under drift it tracked a fixed verify sweep to 2% over 5 s windows,
    against 4% for a bare arithmetic loop and 14% unscaled.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        bareiss_det(_CALIBRATION_MATRIX)
        sorted({(i, i * i % 7) for i in range(60)})
    return time.perf_counter() - t0


class Loop:
    """Closed loop over the pool: one instance at a time.

    On a shared 2-vCPU VM the speed drifts by 15-30% over tens of seconds
    when other guests load the host, and wall and CPU time both follow it.  So a
    calibration loop runs between instances, and each instance's time is
    scaled by CALIBRATION_S over the mean of the calibrations just before
    and after it: ``latencies`` are seconds on a machine that runs the
    calibration in exactly 5 ms, ``raw`` the unscaled seconds.
    """

    def __init__(self, workload, pool, workdir: Path) -> None:
        self.workload, self.pool, self.workdir = workload, pool, workdir
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.digests: list[str] = []
        self.attempted = self.failed = self.digit_limited = 0
        self.problems: list[str] = []

    def one(self, index: int) -> None:
        if not self.calibrations:
            self.calibrations.append(calibrate())
        run = Run()
        try:
            self.workload.run(run, self.pool[index % len(self.pool)], self.workdir)
        except Exception as exc:  # keep measuring; the failure is reported
            run.failed += 1
            run.problems.append(f"instance {index}: {type(exc).__name__}: {describe(exc)}")
        self.calibrations.append(calibrate())
        self.raw.append(run.elapsed)
        self.latencies.append(run.elapsed * 2 * CALIBRATION_S / sum(self.calibrations[-2:]))
        self.digests.append(run.digest)
        self.attempted += run.ops
        self.failed += run.failed
        self.digit_limited += run.digit_limited
        self.problems.extend(run.problems)

    def for_seconds(self, seconds: float) -> None:
        """Run for ``seconds``, then to the end of the pass under way.

        Whole passes keep the mix of instance kinds the same in every run;
        a rare expensive kind cut off at the deadline would otherwise move
        the throughput by the weight of one instance.
        """
        deadline = time.perf_counter() + seconds
        while not self.raw or time.perf_counter() < deadline or len(self.raw) % self.workload.PASS:
            self.one(len(self.raw))

    def for_count(self, count: int) -> None:
        for index in range(count):
            self.one(index)


# Smallest int whose str() raises: the limit counts decimal digits; 0 means none.
_DIGIT_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
_TOO_MANY_DIGITS = 10**_DIGIT_LIMIT if _DIGIT_LIMIT else None


def past_digit_limit(values) -> bool:
    """Whether str() of one of ``values`` raises for having too many digits."""
    return _TOO_MANY_DIGITS is not None and any(abs(x) >= _TOO_MANY_DIGITS for x in values)


def describe(exc: Exception) -> str:
    """The start of an exception message; messages that embed ints beyond
    the interpreter's str() digit limit cannot be formatted at all."""
    try:
        return str(exc)[:300]
    except ValueError:
        return "(message not printable)"


# ---------------------------------------------------------------------------
# input generation


def weighted_structure(rng: random.Random, n: int, r_max: int, c_max: int, p: float):
    """A structure that is valid by construction.

    Connected weights c_ij >= 0 (a random spanning tree plus extra edges
    with probability p) and r with one r_i = 1 give A_ij = c_ij r_i r_j and
    d_i = sum_j c_ij r_j^2, so d_i r_i = sum_j A_ij r_j and gcd(r) = 1.
    With r_max = c_max = 1 this is the Laplacian of a random simple graph.
    """
    c = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        i, j = order[k], order[rng.randrange(k)]
        c[i][j] = c[j][i] = rng.randint(1, c_max)
    for i in range(n):
        for j in range(i + 1, n):
            if c[i][j] == 0 and rng.random() < p:
                c[i][j] = c[j][i] = rng.randint(1, c_max)
    r = [rng.randint(1, r_max) for _ in range(n)]
    r[rng.randrange(n)] = 1
    mult = tuple(tuple(c[i][j] * r[i] * r[j] for j in range(n)) for i in range(n))
    d = tuple(sum(c[i][j] * r[j] * r[j] for j in range(n)) for i in range(n))
    return critgroups.Multigraph(mult), critgroups.ArithmeticalStructure(d, tuple(r))


def fixture_pair(graph: str, structure: str):
    return (
        jsonio.load_graph(jsonio.fixture_path(graph)),
        jsonio.load_structure(jsonio.fixture_path(structure)),
    )


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination (independent of linalg)."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pk = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pk[k] - f * pk[j]) // prev
        prev = pk[k]
    return sign * a[n - 1][n - 1]


# Two primes near 2**61: a wrong determinant passes both with chance ~2**-120.
PRIMES = (2**61 - 1, 2**61 - 31)


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo a prime by Gaussian elimination over Z/p."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pk = a[k]
        det = det * pk[k] % p
        inv = pow(pk[k], -1, p)
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k] * inv % p
            if f:
                for j in range(k + 1, n):
                    ai[j] = (ai[j] - f * pk[j]) % p
    return det % p


# ---------------------------------------------------------------------------
# workloads


class VerifySweep:
    """A full ``verify --all-vertices`` in process on one structure."""

    # The pool repeats this schedule.  Instance cost varies threefold within
    # one size, and cost grows about eightfold per vertex, so most sweeps
    # are n = 6 (the median falls among them), n = 7 sets the tail, and the
    # rare n = 8 sweep still takes about a quarter of the minor-scan time.
    # That one n = 8 structure is the same for every seed: a seeded one
    # moved the throughput of a whole run by 10%.
    _ROUND = ("n6", "n6", "n7", "n6", "simple7", "n6", "n6", "n6", "nonsimple4", "n6", "n6", "n7", "n6")
    SCHEDULE = _ROUND * 3 + _ROUND[:-1] + ("n8",)
    PASS = len(SCHEDULE)
    PASSES = 6

    def __init__(self, sizes: dict[str, int] | None = None) -> None:
        self.sizes = sizes or {"n6": 6, "n7": 7, "n8": 8}

    def pool(self, rng: random.Random, workdir: Path) -> list:
        out = []
        for index in range(self.PASSES * self.PASS):
            kind = self.SCHEDULE[index % self.PASS]
            if kind == "simple7":
                out.append(fixture_pair("simple7.graph.json", "simple7.structure.json"))
            elif kind == "nonsimple4":
                which = "ab"[rng.randrange(2)]
                out.append(fixture_pair("nonsimple4.graph.json", f"nonsimple4.structure-{which}.json"))
            elif kind == "n8":
                out.append(weighted_structure(random.Random(8), self.sizes[kind], r_max=4, c_max=2, p=0.5))
            else:
                out.append(weighted_structure(rng, self.sizes[kind], r_max=4, c_max=2, p=0.5))
        return out

    def warmup_instance(self, workdir: Path):
        return fixture_pair("nonsimple4.graph.json", "nonsimple4.structure-a.json")

    def run(self, run: Run, inst, workdir: Path) -> None:
        g, s = inst
        m = run.call(critgroups.structure_matrix, g, s)
        reports = list(run.call(critgroups.verify_minor_properties, m))
        reports.append(run.call(critgroups.check_conjecture_minors, m))
        for v in range(g.n):
            reports.extend(run.call(critgroups.verify_operation_theorems, g, s, v))
            reports.append(run.call(critgroups.check_conjecture_alpha, g, s, v))
        proven = [r.property_id.value for r in reports if r.failed and r.property_id in PROVEN_IDS]
        run.expect(not proven, f"proven properties failed: {proven}")
        run.feed([(r.property_id.value, r.status, r.degenerate) for r in reports])


class CritgroupChain:
    """critical_group, then star-clique reductions down to 3 vertices.

    Every step computes the critical group and round-trips the structure
    and graph through jsonio.  Entry bit lengths roughly double per step,
    so saves of ints beyond 4,300 digits raise ValueError on Python 3.11+
    (ROADMAP item 5).  Such a save is checked to hold an int past the
    limit and counted in ``digit_limited``, which ``ok_ratio`` shows; a
    ValueError on smaller ints is a failed operation.  The chain goes on
    either way.
    """

    # Two Laplacian chains per r > 1 chain: the Laplacian chains are the
    # slower kind, so the median and the tail both fall among them.  Chain
    # cost varies twofold between inputs of one size, and cost doubles per
    # added vertex, so short chains give enough samples for steady medians.
    SCHEDULE = ("laplacian", "structure", "laplacian")
    PASS = len(SCHEDULE)
    PASSES = 100

    def __init__(self, sizes: dict[str, int] | None = None) -> None:
        self.sizes = sizes or {"laplacian": 18, "structure": 17}

    def pool(self, rng: random.Random, workdir: Path) -> list:
        out = []
        for index in range(self.PASSES * self.PASS):
            kind = self.SCHEDULE[index % self.PASS]
            n = self.sizes[kind]
            if kind == "laplacian":
                g, s = weighted_structure(rng, n, r_max=1, c_max=1, p=0.25)
            else:
                g, s = weighted_structure(rng, n, r_max=2, c_max=1, p=0.25)
            picks = tuple(rng.randrange(n - k) for k in range(n - 3))
            out.append((g, s, picks))
        return out

    def warmup_instance(self, workdir: Path):
        g, s = weighted_structure(random.Random(0), 8, r_max=2, c_max=1, p=0.3)
        return g, s, (0,) * 5

    def run(self, run: Run, inst, workdir: Path) -> None:
        g, s, picks = inst
        files = (
            (jsonio.save_structure, jsonio.load_structure, workdir / "chain.structure.json"),
            (jsonio.save_graph, jsonio.load_graph, workdir / "chain.graph.json"),
        )
        prev = None
        for step in range(len(picks) + 1):
            k = run.call(critgroups.critical_group, g, s)
            run.feed(k.invariant_factors)
            self.check_order(run, g, s, k.order, prev)
            for (save, load, path), obj, ints in zip(files, (s, g), (s.d, sum(g.mult, ()))):
                try:
                    run.call(save, path, obj)
                except ValueError as exc:
                    if past_digit_limit(ints):
                        run.digit_limited += 1
                    else:
                        run.expect(False, f"step {step}: {path.name} save raised {describe(exc)}")
                    continue
                run.expect(run.call(load, path) == obj, f"step {step}: {path.name} round trip differs")
            if step == len(picks):
                break
            v = picks[step]
            row_gcd = gcd(s.d[v], *g.mult[v])
            prev = (g.n, s.d[v], row_gcd, k.order)
            red = run.call(critgroups.star_clique_reduction, g, s, v)
            g, s = red.graph, red.structure

    @staticmethod
    def check_order(run: Run, g, s, order: int, prev) -> None:
        """|K| from a principal minor, and the order law against the step before.

        adj(L) = |K| r r^T, so deleting row and column v leaves a determinant
        of |K| r_v^2; the vertex with the smallest r is used.  The first step
        compares exactly; later steps, whose entries reach 10^5 digits,
        compare modulo two primes, which costs linear rather than cubic
        time in the bit length.
        """
        n = g.n
        v = min(range(n), key=lambda i: s.r[i])
        rows = [[s.d[i] if i == j else -g.mult[i][j] for j in range(n) if j != v] for i in range(n) if i != v]
        want = order * s.r[v] ** 2
        if prev is None:
            ok = bareiss_det(rows) == want
        else:
            ok = all(det_mod(rows, p) == want % p for p in PRIMES)
        run.expect(ok, f"n={n}: |K| r_v^2 differs from det(L_v)")
        if prev is not None:
            pn, dv, row_gcd, porder = prev
            # lower | |K'| | row_gcd^(2n-6) lower, tested as q | row_gcd^(2n-6)
            # with q = |K'| / lower: dividing by the huge upper bound is quadratic.
            q, rem = divmod(order, dv ** (pn - 3) * porder)
            run.expect(rem == 0 and pow(row_gcd, 2 * pn - 6, q) == 0, f"n={pn}: order law fails")


class FuzzSmall:
    """One default ``fuzz_campaign`` (target all, dims 2..6, bound 9, 100 cases)."""

    PASS = 1

    def pool(self, rng: random.Random, workdir: Path) -> list:
        return [rng.randrange(2**31) for _ in range(400)]

    def warmup_instance(self, workdir: Path):
        return 0

    def run(self, run: Run, seed: int, workdir: Path) -> None:
        summary = run.call(critgroups.fuzz_campaign, critgroups.FuzzConfig(seed=seed, target="all"))
        run.expect(summary.proven_failure_count == 0, f"fuzz seed {seed}: proven failures")
        run.expect(summary.cases == 100, f"fuzz seed {seed}: ran {summary.cases} cases")
        run.feed(sorted((pid, tuple(sorted(b.items()))) for pid, b in summary.tallies.items()))
        run.feed([r.property_id.value for r in summary.failures])


# README examples of the fixture commands; "..." stands for omitted lines.
README_CRITGROUP = """\
graph: 7 vertices, 7 edges
structure: d=(3, 3, 1, 4, 2, 2, 3) r=(1, 1, 3, 1, 1, 1, 1)
invariant factors: 1, 1, 1, 1, 3, 3
critical group: Z/3 x Z/3
group order: 9
snf diagonal: 1, 1, 1, 1, 3, 3, 0
D_k  (k=0..7): 1, 1, 1, 1, 1, 3, 9, 0
D_k* (k=1..7): 3, 1, 1, 1, 3, 9, 0
"""
README_APPLY_OP = """\
input: 4 vertices, critical group Z/24 (order 24)
reduction at vertex 4: d=8, r=2
r rescaled by 1
output: 3 vertices, critical group Z/4 x Z/48 (order 192)
wrote reduced.graph.json
wrote reduced.structure.json
lower bound achieved: 192
"""
README_VERIFY = """\
matrix checks on L:
  pass            MINORFACTS_A
...
reduction checks at vertex 4:
  pass            THM_DKL_A
...
  not_applicable  COR_GCD1
summary: 27 pass, 0 fail, 1 not applicable
"""


def matches_example(stdout: str, example: str) -> bool:
    """Every example line appears in stdout, in order; "..." marks omitted lines.

    The README abridges its examples, sometimes without marking the cut,
    so the lines are matched as an ordered subsequence.
    """
    lines = iter(stdout.splitlines())
    return all(want in lines for want in example.splitlines() if want != "...")


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class CliEnumerate:
    """``python -m critgroups.cli`` runs: mostly ``enumerate``, fixture commands between.

    Untraced, each run is a subprocess, so interpreter start-up and import
    are part of its latency.  Traced, ``critgroups.cli.main`` runs in
    process, which is what the tracer can see.
    """

    # Smallest r_max at which the search finds every structure (a Fibonacci
    # number).  Search time grows with the cube of r_max, so r_max stays
    # there; the seed orders the graphs within each pass and shuffles the
    # edge lists, which keeps the cost of a pass the same for every seed.
    MIN_RMAX = {("P", 7): 13, ("P", 8): 21, ("C", 5): 8, ("C", 6): 13}
    FIXTURES = ("critgroup", "apply-op", "verify-vertex", "verify-all")
    PASS = 3 * len(FIXTURES)
    PASSES = 8

    def __init__(self, graphs: dict | None = None) -> None:
        self.min_rmax = graphs or self.MIN_RMAX
        self.in_process = False

    def pool(self, rng: random.Random, workdir: Path) -> list:
        out = []
        for _ in range(self.PASSES):
            shapes = sorted(self.min_rmax) * 2
            rng.shuffle(shapes)
            for fixture in self.FIXTURES:
                for kind, n in (shapes.pop(), shapes.pop()):
                    edges = [[i + 1, i + 2, 1] for i in range(n - 1)]
                    if kind == "C":
                        edges.append([n, 1, 1])
                    rng.shuffle(edges)
                    path = workdir / f"{kind}{n}-{len(out)}.graph.json"
                    path.write_text(json.dumps({"n": n, "edges": edges}) + "\n")
                    count = catalan(n - 1) if kind == "P" else comb(2 * n - 1, n - 1)
                    argv = ["enumerate", str(path), "--rmax", str(self.min_rmax[(kind, n)])]
                    out.append(("enumerate", argv, count))
                out.append((fixture, self.fixture_argv(fixture), None))
        return out

    @staticmethod
    def fixture_argv(name: str) -> list[str]:
        def fx(file: str) -> str:
            return str(jsonio.fixture_path(file))

        simple7 = [fx("simple7.graph.json"), fx("simple7.structure.json")]
        return {
            "critgroup": ["critgroup", *simple7],
            "apply-op": ["apply-op", fx("nonsimple4.graph.json"), fx("nonsimple4.structure-a.json"),
                         "--vertex", "4", "--out", "reduced"],
            "verify-vertex": ["verify", fx("nonsimple4.graph.json"), fx("nonsimple4.structure-b.json"),
                              "--vertex", "4"],
            "verify-all": ["verify", *simple7, "--all-vertices"],
        }[name]

    def warmup_instance(self, workdir: Path):
        return ("critgroup", self.fixture_argv("critgroup"), None)

    def run(self, run: Run, inst, workdir: Path) -> None:
        name, argv, count = inst
        if self.in_process:
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out):
                    code = run.call(cli.main, argv)
            finally:
                os.chdir(cwd)
            stdout = out.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=str(Path(critgroups.__file__).parent.parent))
            run.ops += 1
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "critgroups.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=150,
            )
            run.elapsed += time.perf_counter() - t0
            code, stdout = proc.returncode, proc.stdout
        run.expect(code == 0, f"{name}: exit code {code}")
        run.feed(stdout)
        if name == "enumerate":
            found = re.search(r"^found (\d+) structures$", stdout, re.M)
            listed = sum(1 for line in stdout.splitlines() if line.startswith("  r=("))
            run.expect(found is not None and int(found.group(1)) == count == listed,
                       f"enumerate {argv}: expected {count} structures")
        elif name == "critgroup":
            run.expect(stdout == README_CRITGROUP, "critgroup output differs from README")
        elif name == "apply-op":
            run.expect(stdout == README_APPLY_OP, "apply-op output differs from README")
        elif name == "verify-vertex":
            run.expect(matches_example(stdout, README_VERIFY), "verify output differs from README")
        else:
            run.expect(re.search(r"^summary: \d+ pass, \d+ fail, \d+ not applicable$", stdout, re.M)
                       is not None, "verify --all-vertices printed no summary")


WORKLOADS = {
    "verify_sweep": VerifySweep,
    "critgroup_chain": CritgroupChain,
    "fuzz_small": FuzzSmall,
    "cli_enumerate": CliEnumerate,
}
