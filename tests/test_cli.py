"""Command-line behavior: output, exit codes, file round trips."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

import critgroups.verify as verify
from critgroups.cli import main
from critgroups.jsonio import fixture_path, load_graph, load_structure
from critgroups.verify import PropertyId

from conftest import failing_property

REPO_ROOT = Path(__file__).resolve().parents[1]
SIMPLE7_GRAPH = str(fixture_path("simple7.graph.json"))
SIMPLE7_STRUCTURE = str(fixture_path("simple7.structure.json"))
NONSIMPLE_GRAPH = str(fixture_path("nonsimple4.graph.json"))
NONSIMPLE_A = str(fixture_path("nonsimple4.structure-a.json"))
NONSIMPLE_B = str(fixture_path("nonsimple4.structure-b.json"))


def run_cli(capsys, *args: str):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_graph(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2, 1], [2, 3, 1], [1, 3, 1]]}))
    return str(path)


# ---------------------------------------------------------------------------
# critgroup


def test_critgroup_text_output(capsys):
    code, out, _ = run_cli(capsys, "critgroup", NONSIMPLE_GRAPH, NONSIMPLE_A)
    assert code == 0
    assert "graph: 4 vertices, 11 edges" in out
    assert "structure: d=(8, 10, 4, 8) r=(1, 3, 5, 2)" in out
    assert "invariant factors: 1, 1, 24" in out
    assert "critical group: Z/24" in out
    assert "group order: 24" in out
    assert "snf diagonal: 1, 1, 24, 0" in out
    assert "D_k  (k=0..4): 1, 1, 1, 24, 0" in out
    assert "D_k* (k=1..4): 8, 4, 24, 0" in out


def test_critgroup_simple_example(capsys):
    code, out, _ = run_cli(capsys, "critgroup", SIMPLE7_GRAPH, SIMPLE7_STRUCTURE)
    assert code == 0
    assert "invariant factors: 1, 1, 1, 1, 3, 3" in out
    assert "critical group: Z/3 x Z/3" in out
    assert "group order: 9" in out


def test_critgroup_json_output(capsys):
    code, out, _ = run_cli(capsys, "critgroup", "--json", NONSIMPLE_GRAPH, NONSIMPLE_B)
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == [2, 7, 7, 8]
    assert payload["invariant_factors"] == [1, 1, 24]
    assert payload["order"] == 24
    assert payload["snf_diagonal"] == [1, 1, 24, 0]
    assert payload["dk"] == [1, 1, 1, 24, 0]
    assert payload["dk_star"] == [8, 4, 96, 0]
    assert payload["matrix"][0] == [2, -1, -1, 0]


def test_critgroup_laplacian_of_triangle(capsys, triangle_graph):
    code, out, _ = run_cli(capsys, "critgroup", "--laplacian", triangle_graph)
    assert code == 0
    assert "critical group: Z/3" in out
    assert "group order: 3" in out
    assert "snf diagonal: 1, 1, 3" not in out  # diagonal is 1, 3, 0 after folding rank 2
    assert "snf diagonal: 1, 3, 0" in out


def test_critgroup_structure_xor_laplacian(capsys, triangle_graph):
    code, _, err = run_cli(capsys, "critgroup", "--laplacian", triangle_graph, NONSIMPLE_A)
    assert code == 4 and "usage error" in err
    code, _, err = run_cli(capsys, "critgroup", triangle_graph)
    assert code == 4 and "usage error" in err


# ---------------------------------------------------------------------------
# error exit codes


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code, _, err = run_cli(capsys, "critgroup", str(bad), NONSIMPLE_A)
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "data", [b'\xff\xfe{"n": 2}', b"[" * 200000 + b"]" * 200000], ids=["not-utf8", "deep-nesting"]
)
def test_undecodable_or_deeply_nested_input_exits_2(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, "critgroup", str(bad), "--laplacian")
    assert code == 2
    assert out == ""
    assert err.startswith(f"parse error: {bad}: ") and err.count("\n") == 1


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "critgroup", "/nonexistent/g.json", "--laplacian")
    assert code == 2
    assert "parse error" in err


def test_unreadable_input_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "critgroup", str(tmp_path), "--laplacian")
    assert code == 2
    assert err == f"parse error: cannot read {tmp_path}\n"


def test_output_in_missing_directory_exits_4(capsys, tmp_path):
    prefix = tmp_path / "missing-dir" / "x"
    code, out, err = run_cli(
        capsys, "apply-op", NONSIMPLE_GRAPH, NONSIMPLE_A, "--vertex", "4", "--out", str(prefix)
    )
    assert code == 4
    assert out == ""
    assert err == f"usage error: cannot write {prefix}.graph.json: No such file or directory\n"


def test_output_onto_a_directory_exits_4(capsys, tmp_path):
    prefix = tmp_path / "x"
    (tmp_path / "x.graph.json").mkdir()
    code, _, err = run_cli(
        capsys, "apply-op", NONSIMPLE_GRAPH, NONSIMPLE_A, "--vertex", "4", "--out", str(prefix)
    )
    assert code == 4
    assert err == f"usage error: cannot write {prefix}.graph.json: Is a directory\n"


def test_schema_violation_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "edges": [[1, 2, 1]], "color": "blue"}))
    code, _, err = run_cli(capsys, "critgroup", "--laplacian", str(bad))
    assert code == 2
    assert "unknown graph file keys" in err


def test_invalid_structure_exits_3(capsys, tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"d": [1, 1, 1, 1], "r": [1, 1, 1, 1]}))
    code, _, err = run_cli(capsys, "critgroup", NONSIMPLE_GRAPH, str(wrong))
    assert code == 3
    assert "validation error" in err


def test_imprimitive_structure_exits_3(capsys, tmp_path):
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps({"d": [2, 7, 7, 8], "r": [4, 4, 4, 2]}))
    code, _, err = run_cli(capsys, "critgroup", NONSIMPLE_GRAPH, str(scaled))
    assert code == 3
    assert "validation error" in err


def test_length_mismatch_exits_3(capsys, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"d": [1, 2, 1], "r": [1, 1, 1]}))
    code, _, err = run_cli(capsys, "critgroup", NONSIMPLE_GRAPH, str(short))
    assert code == 3
    assert "validation error" in err


def test_short_structure_names_both_sizes(capsys, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"d": [1, 1], "r": [1, 1]}))
    code, out, err = run_cli(capsys, "critgroup", SIMPLE7_GRAPH, str(short))
    assert (code, out) == (3, "")
    assert err == "validation error: structure has 2 vertices but the graph has 7\n"


def test_disconnected_graph_exits_3(capsys, tmp_path):
    disconnected = tmp_path / "disc.json"
    disconnected.write_text(json.dumps({"n": 3, "edges": [[1, 2, 1]]}))
    code, _, err = run_cli(capsys, "critgroup", "--laplacian", str(disconnected))
    assert code == 3
    assert "validation error" in err


def test_huge_vertex_count_exits_3(capsys, tmp_path):
    # rejected as disconnected before an n x n matrix (10**24 cells) is allocated
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**12, "edges": [[1, 2, 1]]}))
    for args in (("enumerate", str(huge), "--rmax", "2"), ("critgroup", "--laplacian", str(huge))):
        code, out, err = run_cli(capsys, *args)
        assert code == 3
        assert out == ""
        assert "validation error" in err and "graph must be connected" in err


def test_usage_errors_exit_4(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 4
    assert run_cli(capsys)[0] == 4
    assert run_cli(capsys, "fuzz", "--dims", "nonsense")[0] == 4
    assert run_cli(capsys, "fuzz", "--dims", "5..2")[0] == 4
    assert run_cli(capsys, "fuzz", "--bound", "0")[0] == 4
    assert run_cli(capsys, "fuzz", "--cases", "-1")[0] == 4
    assert run_cli(capsys, "enumerate", NONSIMPLE_GRAPH, "--rmax", "0")[0] == 4
    assert run_cli(capsys, "apply-op", NONSIMPLE_GRAPH, NONSIMPLE_A, "--vertex", "9", "--out", "x")[0] == 4
    assert run_cli(capsys, "apply-op", NONSIMPLE_GRAPH, NONSIMPLE_A, "--vertex", "0", "--out", "x")[0] == 4


def test_internal_error_exits_5(capsys, monkeypatch):
    def broken(inst, v, properties):
        raise ArithmeticError("L has Smith rank 2, expected 3")

    monkeypatch.setattr(verify, "_operation_reports", broken)
    code, _, err = run_cli(capsys, "verify", NONSIMPLE_GRAPH, NONSIMPLE_B, "--vertex", "4")
    assert code == 5
    assert err == "internal error: ArithmeticError: L has Smith rank 2, expected 3\n"


# ---------------------------------------------------------------------------
# apply-op


def test_apply_op_lower_bound_example(capsys, tmp_path):
    out_prefix = str(tmp_path / "reduced")
    code, out, _ = run_cli(
        capsys, "apply-op", NONSIMPLE_GRAPH, NONSIMPLE_A, "--vertex", "4", "--out", out_prefix
    )
    assert code == 0
    assert "critical group Z/24 (order 24)" in out
    assert "critical group Z/4 x Z/48 (order 192)" in out
    assert "lower bound achieved: 192" in out

    g = load_graph(f"{out_prefix}.graph.json")
    s = load_structure(f"{out_prefix}.structure.json")
    assert g.edge_list() == [(0, 1, 8), (0, 2, 8), (1, 2, 44)]
    assert s.d == (64, 76, 28)
    assert s.r == (1, 3, 5)


def test_apply_op_upper_bound_example(capsys, tmp_path):
    out_prefix = str(tmp_path / "reduced")
    code, out, _ = run_cli(
        capsys, "apply-op", NONSIMPLE_GRAPH, NONSIMPLE_B, "--vertex", "4", "--out", out_prefix
    )
    assert code == 0
    assert "r rescaled by 2" in out
    assert "upper bound achieved: 768 (lower was 192)" in out
    s = load_structure(f"{out_prefix}.structure.json")
    assert s.d == (16, 52, 52)
    assert s.r == (1, 1, 1)

    # n = 3: |K'| = 4 reaches g^2 |K| with g = 2, past the g^(2n-6) d[v]^(n-3) |K| = 1 form
    gpath, spath = tmp_path / "p3.graph.json", tmp_path / "p3.structure.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[1, 2, 1], [2, 3, 2]]}))
    spath.write_text(json.dumps({"d": [1, 2, 4], "r": [2, 2, 1]}))
    code, out, _ = run_cli(capsys, "apply-op", str(gpath), str(spath), "--vertex", "3", "--out", out_prefix)
    assert code == 0
    assert "critical group trivial (order 1)" in out
    assert "r rescaled by 2" in out
    assert "upper bound achieved: 4 (lower was 1)" in out


def test_apply_op_json(capsys, tmp_path):
    out_prefix = str(tmp_path / "r7")
    code, out, _ = run_cli(
        capsys,
        "apply-op",
        SIMPLE7_GRAPH,
        SIMPLE7_STRUCTURE,
        "--vertex",
        "7",
        "--out",
        out_prefix,
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertex"] == 7
    assert payload["r_divisor"] == 1
    assert payload["before"]["order"] == 9
    assert payload["after"]["order"] == 729
    assert payload["after"]["invariant_factors"] == [1, 3, 3, 9, 9]
    assert payload["order_bounds"]["attained"] == "lower"
    assert payload["order_bounds"] == {"lower": 729, "upper": 729, "attained": "lower"}
    assert load_graph(payload["graph_file"]).n == 6


def test_apply_op_below_three_vertices(capsys, tmp_path):
    gpath = tmp_path / "p2.json"
    spath = tmp_path / "p2s.json"
    gpath.write_text(json.dumps({"n": 2, "edges": [[1, 2, 1]]}))
    spath.write_text(json.dumps({"d": [1, 1], "r": [1, 1]}))
    code, out, _ = run_cli(
        capsys, "apply-op", str(gpath), str(spath), "--vertex", "2", "--out", str(tmp_path / "o")
    )
    assert code == 0
    assert "order bounds: not defined below three vertices" in out


# ---------------------------------------------------------------------------
# verify


def test_verify_all_vertices(capsys):
    code, out, _ = run_cli(capsys, "verify", SIMPLE7_GRAPH, SIMPLE7_STRUCTURE, "--all-vertices")
    assert code == 0
    assert "matrix checks on L" in out
    assert "reduction checks at vertex 7" in out
    assert " 0 fail" in out


def test_verify_single_vertex_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", NONSIMPLE_GRAPH, NONSIMPLE_B, "--vertex", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["proven_failures"] == 0
    statuses = {r["property_id"]: r["status"] for r in payload["reports"]}
    assert statuses["THM_DKL_A"] == "pass"
    assert statuses["COR_GCD1"] == "not_applicable"
    assert statuses["CONJ_ALPHA"] == "pass"
    assert statuses["CONJ_MINORS"] == "pass"


def test_verify_requires_a_vertex_choice(capsys):
    assert run_cli(capsys, "verify", NONSIMPLE_GRAPH, NONSIMPLE_A)[0] == 4
    assert (
        run_cli(
            capsys, "verify", NONSIMPLE_GRAPH, NONSIMPLE_A, "--vertex", "1", "--all-vertices"
        )[0]
        == 4
    )


# ---------------------------------------------------------------------------
# integers past the interpreter's int<->str digit limit

BIG = "1" + "0" * 4999 + "7"  # 5,001 digits; Python 3.11 converts at most 4,300 by default


@pytest.fixture
def big_pair(tmp_path):
    """A 2-vertex multigraph of multiplicity BIG with d = (BIG, BIG), r = (1, 1): K = Z/BIG."""
    gpath, spath = tmp_path / "big.graph.json", tmp_path / "big.structure.json"
    gpath.write_text(f'{{"n": 2, "edges": [[1, 2, {BIG}]]}}')
    spath.write_text(f'{{"d": [{BIG}, {BIG}], "r": [1, 1]}}')
    return str(gpath), str(spath)


@pytest.fixture
def digit_limit():
    """A limit other than the default, which ``main`` must leave as it found it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4400)
    yield 4400
    sys.set_int_max_str_digits(saved)


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_cli_reads_and_prints_integers_of_any_length(capsys, tmp_path, big_pair, digit_limit):
    code, out, err = run_cli(capsys, "critgroup", *big_pair)
    assert (code, err) == (0, "")
    assert f"critical group: Z/{BIG}\n" in out
    assert _digit_limit() == digit_limit
    code, out, _ = run_cli(capsys, "critgroup", "--json", *big_pair)
    assert code == 0
    payload = json.loads(out)
    assert (payload["critical_group"], payload["order"], payload["d"]) == (f"Z/{BIG}", BIG, [BIG, BIG])
    code, out, _ = run_cli(capsys, "verify", *big_pair, "--all-vertices")
    assert code == 0
    assert "summary: 10 pass, 0 fail, 35 not applicable" in out
    code, out, _ = run_cli(capsys, "apply-op", *big_pair, "--vertex", "1", "--out", str(tmp_path / "o"))
    assert code == 0
    assert f"input: 2 vertices, critical group Z/{BIG} (order {BIG})" in out
    assert load_graph(tmp_path / "o.graph.json").n == 1
    assert _digit_limit() == digit_limit


def test_cli_restores_the_digit_limit_after_an_error_exit(capsys, monkeypatch, big_pair, digit_limit):
    def broken(inst, v, properties):
        raise ArithmeticError("broken")

    monkeypatch.setattr(verify, "_operation_reports", broken)
    assert run_cli(capsys, "verify", *big_pair, "--vertex", "1")[0] == 5
    assert _digit_limit() == digit_limit
    assert run_cli(capsys, "critgroup", big_pair[0] + ".missing")[0] == 2
    assert _digit_limit() == digit_limit


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text(capsys, tmp_path):
    gpath = tmp_path / "p3.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[1, 2, 1], [2, 3, 1]]}))
    code, out, _ = run_cli(capsys, "enumerate", str(gpath), "--rmax", "3")
    assert code == 0
    assert "bound: r_max = 3 (exhaustive up to this bound only)" in out
    assert "found 2 structures" in out
    assert "r=(1, 1, 1)  d=(1, 2, 1)" in out
    assert "r=(1, 2, 1)  d=(2, 1, 2)" in out


def test_enumerate_json(capsys, triangle_graph):
    code, out, _ = run_cli(capsys, "enumerate", triangle_graph, "--rmax", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 10
    assert payload["complete_up_to_bound"] is True
    assert len(payload["structures"]) == 10
    assert {"d": [2, 2, 2], "r": [1, 1, 1]} in payload["structures"]


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_summary_is_byte_identical_across_runs(capsys):
    args = ["fuzz", "--seed", "0", "--cases", "30"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks:" in out1
    assert "no witnesses written" in out1


def test_fuzz_zero_cases(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--cases", "0")
    assert code == 0
    assert "checks: 0 total, 0 failed" in out


def test_fuzz_json_and_target(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--seed", "3", "--cases", "40", "--target", "theorems", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"] == 40
    assert payload["failures"] == 0
    assert payload["proven_failures"] == 0
    assert payload["witness_files"] == []
    assert "THM_DKL_A" in payload["tallies"]
    assert "CONJ_MINORS" not in payload["tallies"]


def test_fuzz_proven_failure_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_MATRIX_PROPERTIES", (failing_property(PropertyId.MINORFACTS_A),))
    code, out, _ = run_cli(
        capsys,
        "fuzz",
        "--seed",
        "1",
        "--cases",
        "2",
        "--target",
        "theorems",
        "--archive-dir",
        str(tmp_path),
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["proven_failures"] == 2
    assert len(payload["witness_files"]) == 2
    for name in payload["witness_files"]:
        assert "MINORFACTS_A" in name


def test_unwritable_archive_dir_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_MATRIX_PROPERTIES", (failing_property(PropertyId.MINORFACTS_A),))
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    code, _, err = run_cli(
        capsys, "fuzz", "--cases", "1", "--target", "theorems", "--archive-dir", str(occupied)
    )
    assert code == 4
    assert err == f"usage error: cannot write {occupied}: File exists\n"


# ---------------------------------------------------------------------------
# process-level entry points


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "critgroups.cli", "critgroup", NONSIMPLE_GRAPH, NONSIMPLE_A],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "group order: 24" in proc.stdout


def test_console_script_is_installed(tmp_path):
    """Install a copy of this tree into a fresh venv and run its ``critgroups``.

    The copy keeps the install's ``*.egg-info`` out of the working tree, and
    dropping ``PYTHONPATH`` makes the installed entry point do the import.
    """
    pytest.importorskip("setuptools")
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO_ROOT / name, project / name)
    shutil.copytree(
        REPO_ROOT / "src", project / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    venv_dir = tmp_path / "venv"
    venv.EnvBuilder(system_site_packages=True, with_pip=False).create(venv_dir)
    venv_bin = str(venv_dir / "bin")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    install = subprocess.run(
        [
            shutil.which("python", path=venv_bin),
            "-c",
            "from setuptools import setup; setup()",
            "develop",
            "--no-deps",
        ],
        cwd=project,
        env=env,
        capture_output=True,
        text=True,
    )
    assert install.returncode == 0, install.stderr

    exe = shutil.which("critgroups", path=venv_bin)
    assert exe is not None, "editable install should provide the critgroups script"
    proc = subprocess.run(
        [exe, "enumerate", NONSIMPLE_GRAPH, "--rmax", "2"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exhaustive up to this bound only" in proc.stdout
