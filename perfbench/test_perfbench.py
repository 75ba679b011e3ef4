"""Tests of the benchmark itself, at a tiny corpus length.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--n", "3000", "--seconds", "0"]


def bench(capsys, workload, trace, seed=7):
    """Run the benchmark in-process; returns (exit code, printed lines, result)."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
                    + TINY)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines):
    """{name: unit} of every 'name = value unit' line."""
    out = {}
    for line in lines[:-1]:
        if " = " in line and not line.startswith("#"):
            name, _, rest = line.partition(" = ")
            out[name] = rest.split()[1]
    return out


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_prints_every_metric_with_its_unit(capsys, workload):
    code, lines, result = bench(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    units = printed(lines)
    for name, unit in run.END_TO_END.items():
        assert units[name] == unit
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert units["ops_failed_frac"] == "frac"


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_prints_every_layer_metric(capsys, workload):
    code, lines, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    units = printed(lines)
    assert all(units[name] == unit for name, unit in run.PER_LAYER.items())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    codebook_calls = [v for k, v in values.items() if k.endswith(".calls_per_sym")
                      and (".codebook." in k or ".partial_sums." in k)]
    if workload == "uniform64k":
        assert codebook_calls and all(v == 0 for v in codebook_calls)
    else:
        assert values["enc.codebook.codeword.calls_per_sym"] > 0
        assert values["dec.codebook.decode.calls_per_sym"] > 0
        assert values["enc.partial_sums.prefix.calls_per_sym"] > 0
        assert values["dec.partial_sums.search_with_prefix.calls_per_sym"] > 0
    assert values["partial_sums.touches_max_step"] <= values["partial_sums.touch_budget"]


def test_deterministic_metrics_repeat_exactly(capsys):
    def deterministic(trace):
        _, _, result = bench(capsys, "zipf256-lam1", trace)
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith("calls_per_sym") or k in (
                    "bits_per_sym", "coder.coded_frac", "partial_sums.touches_per_sym")}

    first = {**deterministic(0), **deterministic(1)}
    second = {**deterministic(0), **deterministic(1)}
    calls = [k for k in run.PER_LAYER if k.endswith("calls_per_sym")]
    assert len(first) == len(calls) + 3
    assert first == second


def test_corrupted_roundtrip_is_counted_and_fails_the_command(capsys, monkeypatch):
    real = run.outputs_match

    def corrupted(got, want):
        if isinstance(got, list):
            got = [got[0] ^ 1] + got[1:]
        return real(got, want)

    monkeypatch.setattr(run, "outputs_match", corrupted)
    code, lines, result = bench(capsys, "zipf256-lam1", trace=0)
    assert code != 0
    assert not result["correct"]
    # the two library roundtrips fail, the CLI roundtrip compares bytes and passes
    assert result["failed"] == 2 and result["attempted"] == 3
    frac = next(line for line in lines if line.startswith("ops_failed_frac = "))
    assert float(frac.split()[2]) == pytest.approx(2 / 3)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf64k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
