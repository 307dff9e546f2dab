"""Tests of the benchmark itself: python -m pytest perfbench"""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src/ first on sys.path)
import workloads  # noqa: E402
from run import tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_prints_every_metric_with_unit(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    report = "\n".join(lines[:-1])
    for m in declared:
        assert f"  {m['name']} = " in report and report.count(f" {m['unit']}\n") >= 1
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectra-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _checked(ops):
    _, timed = worker.run_pass(ops)
    return worker.check_pass(ops, timed, workloads.load_fingerprint())


def _broken_spectrum(monkeypatch, breakage):
    from twoatom_cbs import spectrum

    real = spectrum.inelastic_spectrum

    def broken(*args, **kwargs):
        return breakage(real(*args, **kwargs))

    monkeypatch.setattr(spectrum, "inelastic_spectrum", broken)


def _with_nan(spec):
    ladder = spec.ladder_density.copy()
    ladder[len(ladder) // 2] = np.nan
    return dataclasses.replace(spec, ladder_density=ladder)


def _halved(spec):
    return dataclasses.replace(spec, ladder_density=spec.ladder_density / 2,
                               crossed_density=spec.crossed_density / 2)


def _interpolated(spec):
    warnings.warn("skipped 3 ill-conditioned grid points (first at nu = 0)")
    return spec


@pytest.mark.parametrize("workload", ["spectra-wide", "spectra-scan"])
@pytest.mark.parametrize("breakage", [_with_nan, _halved, _interpolated])
def test_broken_spectrum_counts_as_failed(workload, breakage, monkeypatch, tmp_path):
    _broken_spectrum(monkeypatch, breakage)
    records = _checked(workloads.make_ops(workload, 0, tmp_path, tiny=True))
    assert records and all(r["problems"] for r in records)


def test_healthy_tiny_pass_has_no_problems(tmp_path):
    records = _checked(workloads.make_ops("spectra-scan", 0, tmp_path, tiny=True))
    assert [r["problems"] for r in records] == [[]]


def test_fingerprint_tolerates_round_off_not_physics():
    ref = {"alpha": 1.5, "L_inel": 2e-7, "C_inel": 1e-12, "ladder_err": 4e-4}
    close = {"alpha": 1.5 * (1 + 1e-13), "L_inel": 2e-7 * (1 - 1e-13),
             "C_inel": 1e-12 + 1e-20, "ladder_err": 4e-4 + 1e-13}
    assert workloads.compare_fingerprint(close, ref) == []
    moved = dict(close, alpha=1.5 * (1 + 1e-6))
    assert workloads.compare_fingerprint(moved, ref)
    assert workloads.compare_fingerprint(dict(close, ladder_err=5e-4), ref)
    assert workloads.compare_fingerprint({"alpha": 1.5}, None)


def test_seed_fixes_the_generated_inputs(tmp_path):
    def names(seed):
        return [op.name for op in workloads.make_ops("spectra-scan", seed, tmp_path)]

    assert names(7) == names(7)
    assert len({tuple(names(s)) for s in range(5)}) > 1


def test_tail_leaves_ten_samples_beyond():
    assert tail(list(range(100))) == (89, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
