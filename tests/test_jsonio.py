"""File-format tests: schemas, big-integer encoding, witness files."""

from __future__ import annotations

import json
import os
import random
import re
import stat
import sys
from contextlib import contextmanager
from functools import cache
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgroups import jsonio
from critgroups.graphs import (
    ArithmeticalStructure,
    GraphError,
    Multigraph,
    StructureError,
    star_clique_reduction,
    validate_structure,
)
from critgroups.jsonio import (
    SAFE_INT_LIMIT,
    SHARED_CONTENT_BITS,
    FileFormatError,
    _dumps,
    decode_int,
    encode_int,
    encode_ints,
    encode_value,
    fixture_path,
    graph_from_obj,
    graph_to_obj,
    load_graph,
    load_structure,
    matrix_from_obj,
    matrix_to_obj,
    save_graph,
    save_structure,
    structure_from_obj,
    structure_to_obj,
    write_witness,
)
from critgroups.linalg import IntegerMatrix
from critgroups.verify import FAIL, PropertyId, PropertyReport

from conftest import NONSIMPLE_EDGES, SIMPLE7_D, SIMPLE7_R, seeded_structure

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")  # from 3.10.7 on
needs_digit_limit = pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int-to-str digit limit before 3.10.7")


@contextmanager
def int_max_str_digits(limit: int):
    """The int-to-str digit limit set to ``limit`` (0 lifts it), where the interpreter has one."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# ---------------------------------------------------------------------------
# integer encoding


def test_small_ints_stay_ints():
    for x in (0, 1, -17, SAFE_INT_LIMIT, -SAFE_INT_LIMIT):
        assert encode_int(x) == x
        assert decode_int(encode_int(x)) == x


def test_big_ints_become_decimal_strings():
    for x in (SAFE_INT_LIMIT + 1, -(SAFE_INT_LIMIT + 1), 10**30, -(10**30)):
        encoded = encode_int(x)
        assert isinstance(encoded, str)
        assert decode_int(encoded) == x


def test_decode_int_rejects_junk():
    for bad in (True, False, 3.5, "12x", "", "0x10", None, [1], "12\n", "-7\n"):
        with pytest.raises(FileFormatError):
            decode_int(bad)


def test_decode_int_accepts_decimal_strings_even_when_small():
    assert decode_int("42") == 42
    assert decode_int("-7") == -7


DECIMAL = re.compile(r"-?[0-9]+")  # the strings decode_int accepts, as an oracle


def check_decode_int_against_the_regex(s: str) -> None:
    if DECIMAL.fullmatch(s):
        assert decode_int(s) == int(s)
    else:
        with pytest.raises(FileFormatError):
            decode_int(s)


@pytest.mark.parametrize(
    "s", ["-0", "0007", "--1", "-", "+1", " 1", "1\n", "1_0", "\u0663", "\u00b2", "-\u0663"]
)
def test_decode_int_accepts_what_the_regex_accepts(s):
    check_decode_int_against_the_regex(s)


@given(st.text(st.sampled_from("0123456789-+ _\n\t\u0663\u00b2x"), max_size=8) | st.text(max_size=8))
@settings(max_examples=300)
def test_decode_int_matches_the_regex_on_any_text(s):
    check_decode_int_against_the_regex(s)


@st.composite
def shared_content_lists(draw) -> list[int]:
    """Multiples of one content, of 1 or of 2**2,000 to 2**40,000, mixed with ints near the 2**53 boundary."""
    bits = draw(st.integers(2000, 40000))
    content = draw(st.just(1) | st.integers(1 << bits, 1 << (bits + 1)))
    cofactors = st.sampled_from([0, 1, -1, 2, -3, SAFE_INT_LIMIT + 1]) | st.integers(-(1 << 80), 1 << 80)
    small = st.integers(-SAFE_INT_LIMIT - 1, SAFE_INT_LIMIT + 1)
    return draw(st.lists(st.builds(mul, st.just(content), cofactors) | small, min_size=1, max_size=7))


@given(shared_content_lists())
@settings(max_examples=200)
def check_encode_ints_against_encode_int(xs):
    assert encode_ints(xs) == [encode_int(x) for x in xs]


def test_encode_ints_is_encode_int_of_each_entry():
    with int_max_str_digits(0):  # lifted, also while a failing example is printed
        check_encode_ints_against_encode_int()


@pytest.mark.parametrize("xs", [
    [],
    [3 << 3000],  # a single big entry
    [3 << 3000, -(5 << 3000), 0, 7, -SAFE_INT_LIMIT],
    [7**2000 * (SAFE_INT_LIMIT + 3), -(7**2000), 7**2000 * (1 << 90), SAFE_INT_LIMIT],
], ids=["empty", "single", "power-of-two-content", "odd-content"])
def test_encode_ints_shares_a_content_past_the_crossover(xs):
    big = [x for x in xs if abs(x) > SAFE_INT_LIMIT]
    assert len(big) < 2 or gcd(*big).bit_length() >= SHARED_CONTENT_BITS
    assert encode_ints(xs) == [encode_int(x) for x in xs]


def test_the_exact_context_multiplies_past_a_million_digits():
    """The default Emax of 999,999 would raise decimal.Overflow here."""
    Decimal, ctx = jsonio._exact_decimal()
    assert str(ctx.multiply(Decimal("9" * 1_000_001), 3)) == "2" + "9" * 1_000_000 + "7"


def test_encode_value_recurses():
    payload = {"a": [10**20, 3], "b": (1, {"c": -(10**20)}), "pid": PropertyId.CHIO}
    encoded = encode_value(payload)
    assert encoded == {"a": [str(10**20), 3], "b": [1, {"c": str(-(10**20))}], "pid": "CHIO"}
    json.dumps(encoded)  # must be plain JSON types now
    with pytest.raises(TypeError):
        encode_value({1, 2})


# ---------------------------------------------------------------------------
# graph files


def test_graph_round_trip():
    g = Multigraph.from_edges(4, NONSIMPLE_EDGES)
    obj = graph_to_obj(g)
    assert obj["n"] == 4
    assert obj["edges"] == [[1, 2, 1], [1, 3, 1], [2, 3, 5], [2, 4, 2], [3, 4, 2]]
    assert graph_from_obj(obj) == g


def test_graph_round_trip_with_huge_multiplicity():
    g = Multigraph.from_edges(2, [(0, 1, 2**60)])
    obj = graph_to_obj(g)
    assert obj["edges"] == [[1, 2, str(2**60)]]
    assert graph_from_obj(json.loads(json.dumps(obj))) == g


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"edges": []},
        {"n": 2},
        {"n": 2, "edges": [], "extra": 1},
        {"n": 0, "edges": []},
        {"n": 2, "edges": {}},
        {"n": 2, "edges": [[1, 2]]},
        {"n": 2, "edges": [[0, 1, 1]]},
        {"n": 2, "edges": [[1, 3, 1]]},
        {"n": 2, "edges": [[1, 1, 1]]},
        {"n": 2, "edges": [[1, 2, 0]]},
    ],
)
def test_graph_schema_errors(obj):
    with pytest.raises(FileFormatError):
        graph_from_obj(obj)


def test_graph_semantic_errors_are_graph_errors():
    with pytest.raises(GraphError):
        graph_from_obj({"n": 3, "edges": [[1, 2, 1]]})  # vertex 3 disconnected


# ---------------------------------------------------------------------------
# structure files


def test_structure_round_trip():
    s = ArithmeticalStructure(SIMPLE7_D, SIMPLE7_R)
    obj = structure_to_obj(s)
    assert obj == {"d": list(SIMPLE7_D), "r": list(SIMPLE7_R)}
    assert structure_from_obj(obj) == s


def test_structure_round_trip_with_huge_entries():
    s = ArithmeticalStructure((2**70, 1), (1, 2**70))
    obj = json.loads(json.dumps(structure_to_obj(s)))
    assert structure_from_obj(obj) == s


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"d": [1]},
        {"r": [1]},
        {"d": [1], "r": [1], "x": 0},
        {"d": 1, "r": [1]},
        {"d": [1], "r": "1"},
    ],
)
def test_structure_schema_errors(obj):
    with pytest.raises(FileFormatError):
        structure_from_obj(obj)


def test_structure_semantic_errors_are_structure_errors():
    with pytest.raises(StructureError):
        structure_from_obj({"d": [1, 1], "r": [2, 4]})
    with pytest.raises(StructureError):
        structure_from_obj({"d": [1], "r": [0]})


# ---------------------------------------------------------------------------
# matrix payloads


def test_matrix_round_trip():
    m = IntegerMatrix.from_rows([[1, -2], [10**20, 4]])
    obj = json.loads(json.dumps(matrix_to_obj(m)))
    assert obj[1][0] == str(10**20)
    assert matrix_from_obj(obj) == m


def test_matrix_schema_errors():
    for bad in ([], [[]], "nope", [[1], "x"]):
        with pytest.raises(FileFormatError):
            matrix_from_obj(bad)


# ---------------------------------------------------------------------------
# whole files


def test_save_and_load_files(tmp_path):
    g = Multigraph.from_edges(4, NONSIMPLE_EDGES)
    s = ArithmeticalStructure((8, 10, 4, 8), (1, 3, 5, 2))
    gpath = tmp_path / "g.json"
    spath = tmp_path / "s.json"
    save_graph(gpath, g)
    save_structure(spath, s)
    assert gpath.read_text().endswith("\n")
    assert load_graph(gpath) == g
    assert load_structure(spath) == s


EDGE_CASES = (SAFE_INT_LIMIT, SAFE_INT_LIMIT + 1, 10**3999)
SAVED = {
    "simple7-graph": lambda: load_graph(fixture_path("simple7.graph.json")),
    "simple7-structure": lambda: load_structure(fixture_path("simple7.structure.json")),
    "nonsimple4-graph": lambda: load_graph(fixture_path("nonsimple4.graph.json")),
    "nonsimple4-structure-a": lambda: load_structure(fixture_path("nonsimple4.structure-a.json")),
    "nonsimple4-structure-b": lambda: load_structure(fixture_path("nonsimple4.structure-b.json")),
    "one-vertex-graph": lambda: Multigraph(((0,),)),
    "one-vertex-structure": lambda: ArithmeticalStructure((0,), (1,)),
    "big-graph": lambda: Multigraph.from_edges(4, [(k, k + 1, m) for k, m in enumerate(EDGE_CASES)]),
    "big-structure": lambda: ArithmeticalStructure((0, *EDGE_CASES), (*EDGE_CASES, 1)),
}


@cache
def scaled_chain() -> list[tuple[Multigraph, ArithmeticalStructure]]:
    """The pair at each step of a seeded chain of reductions from 8 vertices down to 3.

    The first pair's entries are all multiples of 7**120, and the content about
    doubles in bits per step: the last three steps share contents past
    SHARED_CONTENT_BITS, in entries under 4,300 digits.
    """
    g, s = seeded_structure(random.Random(3), 8, 2, 2)
    g = Multigraph(tuple(tuple(7**120 * m for m in row) for row in g.mult))
    steps = [(g, ArithmeticalStructure(tuple(7**120 * x for x in s.d), s.r))]
    while g.n > 3:
        red = star_clique_reduction(*steps[-1], 0)
        g = red.graph
        steps.append((g, red.structure))
    return steps


for _k in range(6):
    SAVED[f"chain-{8 - _k}-graph"] = lambda k=_k: scaled_chain()[k][0]
    SAVED[f"chain-{8 - _k}-structure"] = lambda k=_k: scaled_chain()[k][1]


def test_the_chain_shares_contents_past_the_crossover():
    contents = [gcd(*s.d).bit_length() for _, s in scaled_chain()]
    assert [bits >= SHARED_CONTENT_BITS for bits in contents] == [False] * 3 + [True] * 3
    assert max(len(str(x)) for x in scaled_chain()[-1][1].d) < 4300


@pytest.mark.parametrize("name", sorted(SAVED))
def test_saved_text_is_json_dumps_with_indent_2(name, tmp_path):
    obj = SAVED[name]()
    graph = isinstance(obj, Multigraph)
    save, load, to_obj = (save_graph, load_graph, graph_to_obj) if graph else \
        (save_structure, load_structure, structure_to_obj)
    save(tmp_path / "f.json", obj)
    assert (tmp_path / "f.json").read_text() == json.dumps(to_obj(obj), indent=2) + "\n"
    assert load(tmp_path / "f.json") == obj


def test_dumps_lays_out_negative_entries_like_json():
    row = [encode_int(x) for x in (0, -1, -SAFE_INT_LIMIT, -(SAFE_INT_LIMIT + 1), -(10**3999))]
    for value in (row, [7], []):
        assert _dumps(value, "") == json.dumps(value, indent=2)
        assert f'{{\n  "k": {_dumps(value, "  ")}\n}}' == json.dumps({"k": value}, indent=2)


@needs_digit_limit
@pytest.mark.parametrize("limit", [4300, 5000, 0])
def test_shared_contents_save_up_to_the_digit_limit_and_raise_past_it(limit, tmp_path, monkeypatch):
    """At limit k, 10**k - 1 saves and 10**k raises the interpreter's own error; a lifted limit saves both."""
    k = limit or 4300
    under, over = (10**k - 1, (10**k - 1) // 9 * 4), (10**k, 10**k // 2)
    assert min(gcd(*under), gcd(*over)).bit_length() >= SHARED_CONTENT_BITS
    for save, load, make in (
        (save_graph, load_graph, lambda a, b: Multigraph.from_edges(3, [(0, 1, a), (1, 2, b)])),
        (save_structure, load_structure, lambda a, b: ArithmeticalStructure((a, b), (1, 1))),
    ):
        path = tmp_path / f"{save.__name__}.json"
        with int_max_str_digits(limit):
            save(path, make(*under))
            assert load(path) == make(*under)
            if not limit:
                save(path, make(*over))
                assert load(path) == make(*over)
                continue
            with pytest.raises(ValueError) as direct:
                str(10**k)
            before = path.read_bytes()
            with monkeypatch.context() as patched:
                patched.setattr(jsonio, "_exact_decimal", lambda: pytest.fail("converted past the limit"))
                with pytest.raises(ValueError) as excinfo:
                    save(path, make(*over))
        assert str(excinfo.value) == str(direct.value)
        assert path.read_bytes() == before


@needs_digit_limit
def test_save_past_the_digit_limit_raises_and_keeps_the_old_file(tmp_path):
    with int_max_str_digits(4300):
        huge = 10**4300
        for save, small, big in (
            (save_graph, Multigraph.from_edges(2, [(0, 1, 3)]), Multigraph.from_edges(2, [(0, 1, huge)])),
            (save_structure, ArithmeticalStructure((1, 1), (1, 1)), ArithmeticalStructure((huge, 1), (1, 1))),
        ):
            path, fresh = tmp_path / f"{save.__name__}.json", tmp_path / f"{save.__name__}-new.json"
            save(path, small)
            before = path.read_bytes()
            for target in (path, fresh):
                with pytest.raises(ValueError):
                    save(target, big)
            assert path.read_bytes() == before
            assert not fresh.exists()


def test_saves_overwrite_longer_and_shorter_files_in_place(tmp_path):
    """Large, small, large to one path: the shrink cuts the old tail off, the regrow extends the file."""
    large = Multigraph.from_edges(12, [(i, j, 10**40 + i * j) for i in range(12) for j in range(i + 1, 12)])
    path = tmp_path / "g.json"
    for g in (large, Multigraph(((0,),)), large):
        save_graph(path, g)
        assert path.read_bytes() == (json.dumps(graph_to_obj(g), indent=2) + "\n").encode()
        assert load_graph(path) == g
    for s in (ArithmeticalStructure((0, *EDGE_CASES), (*EDGE_CASES, 1)), ArithmeticalStructure((0,), (1,))):
        save_structure(path, s)
        assert path.read_bytes() == (json.dumps(structure_to_obj(s), indent=2) + "\n").encode()
        assert load_structure(path) == s


def test_save_to_dev_null_succeeds():
    save_graph(os.devnull, Multigraph.from_edges(4, NONSIMPLE_EDGES))
    save_structure(os.devnull, ArithmeticalStructure((8, 10, 4, 8), (1, 3, 5, 2)))
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_files_get_the_mode_of_an_ordinary_open(umask, tmp_path):
    old = os.umask(umask)
    try:
        (tmp_path / "reference.json").write_text("{}\n")
        save_graph(tmp_path / "g.json", Multigraph(((0,),)))
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("reference.json", "g.json")}
    assert modes == {0o666 & ~umask}


def test_short_writes_are_continued(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    g = Multigraph.from_edges(4, NONSIMPLE_EDGES)
    save_graph(tmp_path / "g.json", g)
    assert (tmp_path / "g.json").read_text() == json.dumps(graph_to_obj(g), indent=2) + "\n"


def test_saves_never_open_with_o_trunc(tmp_path, monkeypatch):
    """Each save opens its file once through ``os.open``, without ``O_TRUNC``."""
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    report = PropertyReport(PropertyId.CONJ_MINORS, FAIL, {"big": 2**60}, degenerate=False)
    for _ in range(2):  # the second round overwrites the files of the first
        save_graph(tmp_path / "g.json", Multigraph.from_edges(4, NONSIMPLE_EDGES))
        save_structure(tmp_path / "s.json", ArithmeticalStructure((8, 10, 4, 8), (1, 3, 5, 2)))
        write_witness(tmp_path / "w", report, seed=7, case_index=3, ordinal=1)
    assert len(flags) == 6
    assert all(flag & os.O_CREAT and flag & os.O_WRONLY and not flag & os.O_TRUNC for flag in flags)


def test_bool_pair_is_rejected_and_its_int_twin_round_trips(tmp_path):
    """A bool entry would be saved as JSON `true`, which loading rejects; so construction rejects it."""
    with pytest.raises(GraphError):
        Multigraph(((0, True), (True, 0)))
    with pytest.raises(StructureError):
        ArithmeticalStructure((True, 1), (1, True))
    g, s = Multigraph(((0, 1), (1, 0))), ArithmeticalStructure((1, 1), (1, 1))
    assert validate_structure(g, s.d, s.r) is None
    save_graph(tmp_path / "g.json", g)
    save_structure(tmp_path / "s.json", s)
    assert (load_graph(tmp_path / "g.json"), load_structure(tmp_path / "s.json")) == (g, s)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError) as excinfo:
        load_graph(path)
    assert "broken.json" in str(excinfo.value)


@pytest.mark.parametrize(
    "data, reason",
    [
        (b'\xff\xfe{"n": 2}', "not UTF-8"),
        ('{"n": 2, "edges": []}'.encode("utf-16"), "not UTF-8"),
        (b"[" * 200000 + b"]" * 200000, "nested too deeply"),
    ],
    ids=["not-utf8", "utf16", "deep-nesting"],
)
def test_load_rejects_undecodable_and_deeply_nested_input(data, reason, tmp_path):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    for load in (load_graph, load_structure):
        with pytest.raises(FileFormatError, match=reason) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)


def test_bundled_fixtures_load_and_validate():
    from critgroups.graphs import validate_structure

    g7 = load_graph(fixture_path("simple7.graph.json"))
    s7 = load_structure(fixture_path("simple7.structure.json"))
    assert g7.n == 7
    assert validate_structure(g7, s7.d, s7.r) is None

    g4 = load_graph(fixture_path("nonsimple4.graph.json"))
    for name in ("nonsimple4.structure-a.json", "nonsimple4.structure-b.json"):
        s = load_structure(fixture_path(name))
        assert validate_structure(g4, s.d, s.r) is None


# ---------------------------------------------------------------------------
# witness files


def test_write_witness_layout(tmp_path):
    report = PropertyReport(
        PropertyId.CONJ_MINORS,
        FAIL,
        {"matrix": [[1, 2], [3, 4]], "big": 2**60},
        degenerate=False,
    )
    path = write_witness(tmp_path / "out", report, seed=7, case_index=3, ordinal=1)
    assert path.name == "witness-7-000003-001-CONJ_MINORS.json"
    payload = json.loads(path.read_text())
    assert payload["property_id"] == "CONJ_MINORS"
    assert payload["status"] == FAIL
    assert payload["degenerate"] is False
    assert payload["seed"] == 7
    assert payload["case_index"] == 3
    assert payload["witness"]["matrix"] == [[1, 2], [3, 4]]
    assert payload["witness"]["big"] == str(2**60)
    # stable content: keys sorted, trailing newline
    text = path.read_text()
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
