"""Loading only what is used: the package's lazy exports and the CLI's import footprint.

The footprint tests start a fresh interpreter, since in this process every
module of the package is already loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import critgroups
import critgroups.linalg as linalg
from critgroups.jsonio import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"
PACKAGE_ROOT = str(Path(critgroups.__file__).resolve().parents[1])

# Runs cli.main on each argv given as a JSON argument and prints, per run,
# its exit code, its stdout, the package modules loaded after it and
# whether ``dataclasses`` and ``decimal`` are loaded by then.
CLI_PROBE = """
import contextlib, io, json, sys
from critgroups import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    loaded = sorted(m for m in sys.modules if m.startswith("critgroups"))
    return {"code": code, "out": out.getvalue(), "loaded": loaded,
            "dataclasses": "dataclasses" in sys.modules, "decimal": "decimal" in sys.modules}

print(json.dumps([run(json.loads(arg)) for arg in sys.argv[1:]]))
"""


def fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_enumerate_loads_neither_verify_nor_linalg(tmp_path):
    graph = str(fixture_path("nonsimple4.graph.json"))
    structure_a = str(fixture_path("nonsimple4.structure-a.json"))
    structure = str(fixture_path("nonsimple4.structure-b.json"))
    argvs = (["enumerate", graph, "--rmax", "2"], ["critgroup", graph, structure_a],
             ["apply-op", graph, structure, "--vertex", "4", "--out", str(tmp_path / "reduced")],
             ["verify", graph, structure, "--vertex", "4"])
    enumerated, critgroup, apply_op, verified = json.loads(fresh_python(CLI_PROBE, *map(json.dumps, argvs)))
    assert enumerated["code"] == 0 and "found 9 structures" in enumerated["out"]
    assert "critgroups.verify" not in enumerated["loaded"]
    assert "critgroups.linalg" not in enumerated["loaded"]
    # critgroup and apply-op, in the same process afterwards, print their usual
    # output from the instance in graphs: they load linalg but not the checks
    for run, golden in ((critgroup, "critgroup-nonsimple4-a"), (apply_op, "apply-op-nonsimple4-b")):
        assert run["code"] == 0
        assert run["out"].replace(str(tmp_path), "<OUT>") == (GOLDEN / f"{golden}.out").read_text()
        assert "critgroups.linalg" in run["loaded"]
        assert "critgroups.verify" not in run["loaded"]
    # verify, in the same process afterwards, loads both and prints its usual summary
    assert verified["code"] == 0
    assert {"critgroups.verify", "critgroups.linalg"} <= set(verified["loaded"])
    assert verified["out"] == (GOLDEN / "verify-nonsimple4-b.out").read_text()


def test_no_command_loads_dataclasses(tmp_path):
    graph = str(fixture_path("simple7.graph.json"))
    structure = str(fixture_path("simple7.structure.json"))
    argvs = (["enumerate", graph, "--rmax", "2"], ["critgroup", graph, structure],
             ["verify", graph, structure, "--all-vertices"],
             ["apply-op", graph, structure, "--vertex", "3", "--out", str(tmp_path / "reduced")],
             ["fuzz", "--seed", "0", "--cases", "20"])
    runs = json.loads(fresh_python(CLI_PROBE, *map(json.dumps, argvs)))
    # each run leaves dataclasses unloaded; the last one has loaded every module
    assert [(run["code"], run["dataclasses"]) for run in runs] == [(0, False)] * len(argvs)
    assert {"critgroups.graphs", "critgroups.linalg", "critgroups.verify", "critgroups.enumeration",
            "critgroups.jsonio"} <= set(runs[-1]["loaded"])


def test_fixture_commands_load_no_decimal(tmp_path):
    """Only saves of entries that share a content past the crossover load decimal."""
    assert fresh_python("import sys, critgroups; print('decimal' in sys.modules)") == "False\n"
    graph = str(fixture_path("simple7.graph.json"))
    structure = str(fixture_path("simple7.structure.json"))
    argvs = (["enumerate", graph, "--rmax", "2"], ["critgroup", graph, structure],
             ["apply-op", graph, structure, "--vertex", "3", "--out", str(tmp_path / "reduced")],
             ["verify", graph, structure, "--all-vertices"])
    runs = json.loads(fresh_python(CLI_PROBE, *map(json.dumps, argvs)))
    assert [(run["code"], run["decimal"]) for run in runs] == [(0, False)] * len(argvs)


def test_package_import_loads_no_submodule_and_submodules_still_import():
    code = """
import sys
import critgroups
print(sorted(m for m in sys.modules if m.startswith("critgroups")))
from critgroups import verify
print(verify.__name__, verify is sys.modules["critgroups.verify"])
"""
    assert fresh_python(code).splitlines() == ["['critgroups']", "critgroups.verify True"]


def test_each_export_is_the_attribute_of_its_home_module():
    for name in critgroups.__all__:
        obj = getattr(critgroups, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("critgroups."), name
        assert getattr(home, name) is obj, name
        assert name not in vars(critgroups), name  # resolved on access, never bound


def test_exports_follow_a_replaced_attribute_of_the_home_module(monkeypatch):
    def fake(m):
        return 0

    monkeypatch.setattr(linalg, "determinant", fake)
    assert critgroups.determinant is fake
    monkeypatch.undo()
    assert critgroups.determinant is linalg.determinant


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from critgroups import *", namespace)
    for name in critgroups.__all__:
        assert namespace[name] is getattr(critgroups, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'critgroups' has no attribute 'no_such_name'"):
        critgroups.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from critgroups import no_such_name", {})


def test_dir_lists_every_export():
    assert set(critgroups.__all__) <= set(dir(critgroups))
    assert "__version__" in dir(critgroups)
