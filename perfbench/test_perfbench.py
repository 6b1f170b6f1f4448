"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the source root.

They make no timing assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def test_smoke_mode_reports_every_metric_and_runs_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "# smoke passed"
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(workloads.NAMES)
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "ref1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_inputs(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)
    nominal, jittered = workloads.make(name, 0), workloads.make(name, 7)
    if name == "kernel_suite":
        assert nominal.argv_tail == ()          # verify-kernel at its defaults
        assert jittered.kernel_checks == nominal.kernel_checks == 42
        return
    assert nominal.config["epsilon"] == "0.01"
    ratio = float(jittered.config["epsilon"]) / 0.01
    assert 0.8 <= ratio <= 1.2 and ratio != 1.0
    if name == "sweep":
        values = jittered.config["sweep_values"].split(",")
        assert sorted(map(float, values)) == sorted(workloads.SWEEP_REGIMES)


def test_reference_comparison_tolerance(tmp_path):
    reference = HERE / "reference" / "frac2d.norms.csv"
    lines = reference.read_text().splitlines()
    row = lines[5].split(",")

    def with_linf(factor):
        changed = row.copy()
        changed[1] = repr(float(row[1]) * factor)
        path = tmp_path / "norms.csv"
        path.write_text("\n".join(lines[:5] + [",".join(changed)] + lines[6:]) + "\n")
        return workloads.compare_norms(path, reference)

    assert with_linf(1.0) == ""
    assert with_linf(1.0 + 2e-14) == ""
    assert "line 6" in with_linf(1.0 + 1e-12)
