"""The benchmark's own tests: metric coverage, the kernel's independence,
exact count repeatability, and failing cleanly without program sources.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` as a subprocess with one-second
windows, so the whole file takes about a minute.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _artifact(workload: str, trace: int, seed: int = 3) -> dict:
    path = BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    result = _result("paper-b1", trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == want
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
    if trace == 0:
        assert result["metrics"]["verified_ratio"]["value"] == 1.0
        # every normalized timing carries its raw seconds and calibration
        art = _artifact("paper-b1", trace)
        for name, entry in art["metrics"].items():
            if entry["unit"] in ("s", "1/s"):
                assert entry["raw"] > 0 and entry["calib_s"] == art["host.calib_s"], name


def test_calibration_kernel_imports_nothing_from_the_program():
    tree = ast.parse((BENCH / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)
    probe = (
        "import sys; sys.path.insert(0, 'perfbench'); import calib; calib.kernel(); "
        "print([m for m in sys.modules if m.split('.')[0] == 'repro'])"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


EXACT_COUNTS = (
    "crypto.prg.blocks",
    "crypto.elgamal.encryptions",
    "crypto.commitment.fold_terms",
    "pcp.queries",
    "qap.proof_vector_len",
    "compiler.constraints",
)


@pytest.mark.parametrize("workload", ["paper-b1", "served"])
def test_exact_counts_repeat_across_runs_with_one_seed(workload):
    first = _result(workload, 1)
    first_bytes = _artifact(workload, 1)["extra"].get("net.bytes_by_program")
    second = _result(workload, 1)
    second_bytes = _artifact(workload, 1)["extra"].get("net.bytes_by_program")
    for name in EXACT_COUNTS + ("net.bytes_sent", "net.bytes_received"):
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["pcp.queries"]["value"] > 0
    if workload == "served":
        assert first_bytes == second_bytes and len(first_bytes) == 4


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("paper-b1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
