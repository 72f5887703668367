"""JSON file formats: graphs, structures, and fuzz witnesses.

Files use 1-based vertex indices (edges ``[i, j, multiplicity]``); the
in-memory model is 0-based, converted exactly once here.  Integers whose
magnitude exceeds 2**53 are serialized as decimal strings, so values
survive any JSON reader that parses numbers as IEEE doubles; both plain
numbers and decimal strings are accepted on input.  Graph and structure files hold
``json.dumps(obj, indent=2)`` text written without its pure-Python encoder; nothing in
them needs escaping (plain keys; :func:`encode_int`'s strings hold ``-`` and digits).

Input is decoded as UTF-8 (RFC 8259); bytes that are not UTF-8, or JSON nested
too deeply for the parser, raise :class:`FileFormatError` like any other
malformed file.  Saves build the whole text first, then overwrite an existing
file in place (see :func:`_write`), so a save that fails on the int-to-str
digit limit raises ``ValueError`` and leaves the old file as it was.
Along a chain of reductions the entries are one big content times small
cofactors; :func:`encode_ints` converts such a content to decimal once per list.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from math import gcd
from pathlib import Path
from typing import TYPE_CHECKING

from .graphs import ArithmeticalStructure, Multigraph

if TYPE_CHECKING:
    from .linalg import IntegerMatrix

SAFE_INT_LIMIT = 1 << 53


class FileFormatError(ValueError):
    """The file cannot be read, is not JSON, or does not match the expected schema."""


def encode_int(x: int):
    """An int as itself, or as a decimal string beyond the 2**53 safe range."""
    return x if -SAFE_INT_LIMIT <= x <= SAFE_INT_LIMIT else str(x)


# below this many bits, str() of each entry costs less than the gcd and the decimal product
SHARED_CONTENT_BITS = 2048
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit, as before 3.10.7
_ten_to = cache(lambda k: 10**k)


@cache
def _exact_decimal():
    """``Decimal`` and a context whose products of ints are exact at any size, as in 3.12's ``_pylong``."""
    import decimal  # on first use, so importing the package never loads decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    return decimal.Decimal, ctx


def encode_ints(xs) -> list:
    """``[encode_int(x) for x in xs]``, converting a big content c of the entries past 2**53 once.

    Each such entry is ``str(c_dec * (x // c))``: linear, where ``str(x)`` is quadratic before CPython 3.12.
    """
    big = [x for x in xs if not -SAFE_INT_LIMIT <= x <= SAFE_INT_LIMIT]
    c = gcd(*big) if len(big) > 1 else 1
    if c.bit_length() < SHARED_CONTENT_BITS:
        return [encode_int(x) for x in xs]
    limit = _digit_limit()
    for x in big:
        if limit and abs(x) >= _ten_to(limit):
            str(x)  # the interpreter's own ValueError, before anything is converted
    Decimal, ctx = _exact_decimal()
    c_dec = Decimal(str(c))
    return [x if -SAFE_INT_LIMIT <= x <= SAFE_INT_LIMIT else str(ctx.multiply(c_dec, x // c)) for x in xs]


def decode_int(value) -> int:
    """An int, or a str matching ``-?[0-9]+`` in full; ``int()`` would also take ``+``, ``_``, spaces."""
    if isinstance(value, bool):
        raise FileFormatError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    # bytes.isdigit: about ten times faster than str.isdigit or the regex on 4,000 digits
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").encode().isdigit():
        return int(value)
    raise FileFormatError(f"expected an integer or decimal string, got {value!r}")


def encode_value(value):
    """Recursively apply :func:`encode_int` inside dicts, lists and tuples."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return encode_int(value)
    if isinstance(value, (list, tuple)):
        return [encode_value(x) for x in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# graph files


def graph_to_obj(g: Multigraph) -> dict:
    edges = g.edge_list()
    mults = encode_ints([m for _, _, m in edges])
    return {"n": g.n, "edges": [[i + 1, j + 1, m] for (i, j, _), m in zip(edges, mults)]}


def graph_from_obj(obj) -> Multigraph:
    if not isinstance(obj, dict):
        raise FileFormatError("graph file must be a JSON object")
    unknown = set(obj) - {"n", "edges"}
    if unknown:
        raise FileFormatError(f"unknown graph file keys: {sorted(unknown)}")
    try:
        n = decode_int(obj["n"])
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise FileFormatError(f"graph file missing key {exc}") from None
    if n < 1:
        raise FileFormatError(f"vertex count must be positive, got {n}")
    if not isinstance(raw_edges, list):
        raise FileFormatError("edges must be a list")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FileFormatError(f"each edge must be [i, j, multiplicity], got {entry!r}")
        i, j, m = map(decode_int, entry)
        if not (1 <= i <= n and 1 <= j <= n):
            raise FileFormatError(f"edge endpoints out of range 1..{n}: {entry!r}")
        if i == j:
            raise FileFormatError(f"loops are not allowed: {entry!r}")
        if m < 1:
            raise FileFormatError(f"multiplicity must be positive: {entry!r}")
        edges.append((i - 1, j - 1, m))
    return Multigraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# structure files


def structure_to_obj(s: ArithmeticalStructure) -> dict:
    return {"d": encode_ints(s.d), "r": encode_ints(s.r)}


def structure_from_obj(obj) -> ArithmeticalStructure:
    if not isinstance(obj, dict):
        raise FileFormatError("structure file must be a JSON object")
    unknown = set(obj) - {"d", "r"}
    if unknown:
        raise FileFormatError(f"unknown structure file keys: {sorted(unknown)}")
    try:
        d_raw, r_raw = obj["d"], obj["r"]
    except KeyError as exc:
        raise FileFormatError(f"structure file missing key {exc}") from None
    if not isinstance(d_raw, list) or not isinstance(r_raw, list):
        raise FileFormatError("d and r must be lists")
    return ArithmeticalStructure(tuple(map(decode_int, d_raw)), tuple(map(decode_int, r_raw)))


# ---------------------------------------------------------------------------
# matrices (used in command output and witnesses)


def matrix_to_obj(m: IntegerMatrix) -> list[list]:
    flat = iter(encode_ints([x for row in m.entries for x in row]))
    return [[next(flat) for _ in row] for row in m.entries]


def matrix_from_obj(obj) -> IntegerMatrix:
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(row, list) and row for row in obj)
    ):
        raise FileFormatError("matrix must be a nonempty list of nonempty rows")
    import critgroups.linalg as linalg  # here, so reading graph files never loads linalg

    return linalg.IntegerMatrix.from_rows([[decode_int(x) for x in row] for row in obj])


# ---------------------------------------------------------------------------
# file helpers


def _load_json(path) -> object:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}") from exc
    try:
        return json.loads(data.decode())
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc


def _write(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting an existing file in place.

    The file is opened without ``O_TRUNC`` and cut to the new length only if
    it was longer.  On ext4, truncating a file that holds data and then
    writing it makes ``close`` start its write-back (``auto_da_alloc``),
    which costs about ten times the write itself.  Trade-off: a crash
    mid-save can leave the new bytes followed by old ones, where opening
    with ``O_TRUNC`` could leave a truncated file.  Non-regular targets such
    as ``/dev/null`` report size 0 and are never truncated.
    """
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def load_graph(path) -> Multigraph:
    return graph_from_obj(_load_json(path))


def _text(x) -> str:
    """The JSON text of an encoded int."""
    return f'"{x}"' if isinstance(x, str) else int.__repr__(x)


def _dumps(values: list, indent: str) -> str:
    """``json.dumps(values, indent=2)`` nested at ``indent``, for a list of encoded ints."""
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(_text, values)) + f"\n{indent}]" if values else "[]"


def save_graph(path, g: Multigraph) -> None:
    """Write ``json.dumps(graph_to_obj(g), indent=2)`` and a newline; the text is built first."""
    edges = ",\n    ".join(f"[\n      {i},\n      {j},\n      {_text(m)}\n    ]"
                             for i, j, m in graph_to_obj(g)["edges"])
    edges = f"[\n    {edges}\n  ]" if edges else "[]"
    _write(path, f'{{\n  "n": {g.n},\n  "edges": {edges}\n}}\n')


def load_structure(path) -> ArithmeticalStructure:
    return structure_from_obj(_load_json(path))


def save_structure(path, s: ArithmeticalStructure) -> None:
    """Write ``json.dumps(structure_to_obj(s), indent=2)`` and a newline; the text is built first."""
    obj = structure_to_obj(s)
    _write(path, f'{{\n  "d": {_dumps(obj["d"], "  ")},\n  "r": {_dumps(obj["r"], "  ")}\n}}\n')


def write_witness(directory, report, seed: int, case_index: int, ordinal: int) -> Path:
    """Archive one failing report; the filename is deterministic.

    The payload carries the property id, the replay coordinates (seed and
    case index) and the full witness, so the failure can be reproduced
    without rerunning the campaign.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = f"witness-{seed}-{case_index:06d}-{ordinal:03d}-{report.property_id.value}.json"
    payload = {
        "property_id": report.property_id.value,
        "status": report.status,
        "degenerate": report.degenerate,
        "seed": seed,
        "case_index": case_index,
        "witness": report.witness,
    }
    path = directory / name
    _write(path, json.dumps(encode_value(payload), indent=2, sort_keys=True) + "\n")
    return path


def fixture_path(name: str) -> Path:
    """Path of a bundled example file (see the package ``fixtures/`` directory)."""
    from importlib.resources import files

    return Path(str(files("critgroups") / "fixtures" / name))
