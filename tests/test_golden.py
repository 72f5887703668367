"""Byte-for-byte CLI output on the bundled fixtures and fixed fuzz seeds.

Each case runs ``critgroups`` in process and compares its stdout with
``tests/golden/<name>.out``.  Arguments ending in ``.json`` name bundled
fixtures; ``{out}`` is a temporary output prefix, written as ``<OUT>`` in
the golden files.  The files two ``apply-op`` cases write are compared
with ``tests/golden/<stem>.graph.json`` and ``<stem>.structure.json``.
To record the files again (only when an output change is intended), run
``python tests/test_golden.py`` with ``src`` on the path.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from critgroups.cli import main
from critgroups.jsonio import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"

_N4 = "nonsimple4.graph.json"
_S7 = "simple7.graph.json simple7.structure.json"

CASES = {
    "critgroup-simple7": f"critgroup {_S7}",
    "critgroup-simple7-json": f"critgroup {_S7} --json",
    "critgroup-nonsimple4-a": f"critgroup {_N4} nonsimple4.structure-a.json",
    "critgroup-nonsimple4-laplacian-json": f"critgroup {_N4} --laplacian --json",
    "apply-op-nonsimple4-a": f"apply-op {_N4} nonsimple4.structure-a.json --vertex 4 --out {{out}}",
    "apply-op-nonsimple4-a-json": f"apply-op {_N4} nonsimple4.structure-a.json --vertex 4 --out {{out}} --json",
    "apply-op-nonsimple4-b": f"apply-op {_N4} nonsimple4.structure-b.json --vertex 4 --out {{out}}",
    "apply-op-simple7-json": f"apply-op {_S7} --vertex 3 --out {{out}} --json",
    "verify-nonsimple4-b": f"verify {_N4} nonsimple4.structure-b.json --vertex 4",
    "verify-nonsimple4-b-json": f"verify {_N4} nonsimple4.structure-b.json --vertex 4 --json",
    "verify-nonsimple4-b-all": f"verify {_N4} nonsimple4.structure-b.json --all-vertices",
    "verify-nonsimple4-a-all-json": f"verify {_N4} nonsimple4.structure-a.json --all-vertices --json",
    "verify-simple7-all": f"verify {_S7} --all-vertices",
    "verify-simple7-all-json": f"verify {_S7} --all-vertices --json",
    "enumerate-nonsimple4": f"enumerate {_N4} --rmax 6",
    "enumerate-nonsimple4-json": f"enumerate {_N4} --rmax 6 --json",
    "fuzz-theorems": "fuzz --seed 0 --cases 200 --target theorems",
    "fuzz-theorems-json": "fuzz --seed 0 --cases 200 --target theorems --json",
    **{f"fuzz-seed{seed}-json": f"fuzz --seed {seed} --cases 200 --json" for seed in range(5)},
}

# apply-op cases whose written files are compared too, with their golden file stems
WRITTEN = {
    "apply-op-nonsimple4-a": "apply-op-nonsimple4-a",
    "apply-op-simple7-json": "apply-op-simple7",
}
SUFFIXES = (".graph.json", ".structure.json")


def run_case(name: str, out_dir: Path) -> tuple[int, str]:
    argv = [
        str(fixture_path(arg)) if arg.endswith(".json") else arg.format(out=out_dir / "reduced")
        for arg in CASES[name].split()
    ]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue().replace(str(out_dir), "<OUT>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, out = run_case(name, tmp_path)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_apply_op_files_match_golden(name, tmp_path):
    assert run_case(name, tmp_path)[0] == 0
    for suffix in SUFFIXES:
        written = (tmp_path / f"reduced{suffix}").read_bytes()
        assert written == (GOLDEN / f"{WRITTEN[name]}{suffix}").read_bytes()


def test_apply_op_rerun_overwrites_longer_files(tmp_path):
    """simple7's files are longer than nonsimple4-a's; the second run must leave no old tail."""
    assert run_case("apply-op-simple7-json", tmp_path)[0] == 0
    assert run_case("apply-op-nonsimple4-a", tmp_path)[0] == 0
    for suffix in SUFFIXES:
        written = (tmp_path / f"reduced{suffix}").read_bytes()
        assert written == (GOLDEN / f"apply-op-nonsimple4-a{suffix}").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            status, text = run_case(case, Path(tmp))
            for suffix in SUFFIXES if case in WRITTEN else ():
                written = (Path(tmp) / f"reduced{suffix}").read_bytes()
                (GOLDEN / f"{WRITTEN[case]}{suffix}").write_bytes(written)
        assert status == 0, (case, status)
        (GOLDEN / f"{case}.out").write_text(text)
