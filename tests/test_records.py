"""The package's records: value equality, hashing, immutability and a stable repr.

One instance of every record class, with its repr pinned: the CLI prints
some of these values and tests compare others by repr.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from critgroups.enumeration import EnumerationQuery
from critgroups.graphs import (
    ArithmeticalStructure,
    CriticalGroup,
    Multigraph,
    ReductionResult,
    StructureViolation,
)
from critgroups.linalg import IntegerMatrix, MinorGcdProfile, MinorSpec, SnfResult
from critgroups.verify import (
    FuzzConfig,
    FuzzSummary,
    PropertyId,
    PropertyReport,
    _Property,
)

PID = PropertyId.CHIO


def records():
    """(record, its repr) for one fresh instance of each frozen record class."""
    edge = Multigraph(((0, 1), (1, 0)))
    return [
        (edge, "Multigraph(mult=((0, 1), (1, 0)))"),
        (ArithmeticalStructure((1, 1), (1, 1)), "ArithmeticalStructure(d=(1, 1), r=(1, 1))"),
        (StructureViolation(None, "gcd(r) = 2, expected 1"),
         "StructureViolation(vertex=None, message='gcd(r) = 2, expected 1')"),
        (CriticalGroup((1, 3), 3), "CriticalGroup(invariant_factors=(1, 3), order=3)"),
        (ReductionResult(Multigraph(((0,),)), ArithmeticalStructure((0,), (1,)), 1, 1),
         "ReductionResult(graph=Multigraph(mult=((0,),)), "
         "structure=ArithmeticalStructure(d=(0,), r=(1,)), vertex=1, r_divisor=1)"),
        (EnumerationQuery(edge, 3),
         "EnumerationQuery(graph=Multigraph(mult=((0, 1), (1, 0))), r_max=3)"),
        (IntegerMatrix(((1, -2), (3, 4))), "IntegerMatrix(entries=((1, -2), (3, 4)))"),
        (MinorSpec((0, 2), (1, 2)), "MinorSpec(row_set=(0, 2), col_set=(1, 2))"),
        (SnfResult((2, 0), 1), "SnfResult(diag=(2, 0), rank=1)"),
        (MinorGcdProfile((1, 1, 0), (1, 0), (2, 1), (1, 1)),
         "MinorGcdProfile(dk=(1, 1, 0), dk_star=(1, 0), row_gcds=(2, 1), col_gcds=(1, 1))"),
        (PropertyReport(PID, "pass"),
         "PropertyReport(property_id=<PropertyId.CHIO: 'CHIO'>, status='pass', witness=None, "
         "degenerate=False)"),
        (_Property(PID, bool, len),
         "_Property(pid=<PropertyId.CHIO: 'CHIO'>, applies=<class 'bool'>, "
         "comparisons=<built-in function len>)"),
        (FuzzConfig(seed=3, target="alpha"),
         "FuzzConfig(seed=3, matrix_dims=(2, 6), entry_bound=9, case_count=100, "
         "structure_queries=None, target='alpha')"),
    ]


IDS = [type(record).__name__ for record, _ in records()]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_frozen_record(index):
    record, text = records()[index]
    twin, _ = records()[index]
    assert repr(record) == text
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert repr(record) == text  # the refused changes left it as it was
    # neither a tuple nor iterable: never equal to the tuple of its fields
    values = tuple(getattr(record, field) for field in type(record).__slots__)
    assert record != values and values != record
    with pytest.raises(TypeError):
        iter(record)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_records_of_different_classes_with_equal_fields_are_unequal():
    assert MinorSpec((0,), (1,)) != ArithmeticalStructure((0,), (1,))
    assert IntegerMatrix(((0, 1), (1, 0))) != Multigraph(((0, 1), (1, 0)))
    assert SnfResult((1,), 1) != CriticalGroup((1,), 1)
    assert ArithmeticalStructure((0,), (1,)) == ArithmeticalStructure((0,), (1,))
    assert ArithmeticalStructure((2, 1), (1, 2)) != ArithmeticalStructure((2, 1), (1, 1))


def test_keyword_construction_and_defaults():
    assert FuzzConfig(seed=3, target="alpha") == FuzzConfig(3, (2, 6), 9, 100, None, "alpha")
    report = PropertyReport(PID, "pass", degenerate=True)
    assert (report.witness, report.degenerate) == (None, True)
    assert report == PropertyReport(property_id=PID, status="pass", witness=None, degenerate=True)
    assert ArithmeticalStructure(r=(1, 1), d=(1, 1)) == ArithmeticalStructure((1, 1), (1, 1))
    with pytest.raises(TypeError):
        PropertyReport(PID)
    with pytest.raises(TypeError):
        SnfResult((1,), 1, 0)
    with pytest.raises(TypeError):
        FuzzConfig(seeds=3)
    # the field checks still run in __init__; tests/test_verify.py covers each of them
    with pytest.raises(ValueError):
        FuzzConfig(seed=3, target="everything")


def test_fuzz_summary_is_mutable_with_fresh_containers():
    first, second = FuzzSummary(FuzzConfig()), FuzzSummary(config=FuzzConfig())
    assert first == second
    first.tally(PropertyReport(PID, "pass"))
    first.failures.append(PropertyReport(PID, "fail"))
    first.witness_paths.append("w.json")
    first.cases += 1
    assert (second.tallies, second.failures, second.witness_paths, second.cases) == ({}, [], [], 0)
    assert first != second
    assert repr(first) == (
        "FuzzSummary(config=FuzzConfig(seed=0, matrix_dims=(2, 6), entry_bound=9, case_count=100, "
        "structure_queries=None, target='all'), cases=1, tallies={'CHIO': {'pass': 1, 'fail': 0, "
        "'not_applicable': 0}}, failures=[PropertyReport(property_id=<PropertyId.CHIO: 'CHIO'>, "
        "status='fail', witness=None, degenerate=False)], witness_paths=['w.json'])"
    )
    with pytest.raises(TypeError):
        hash(first)

