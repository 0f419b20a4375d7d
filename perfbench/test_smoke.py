"""Smoke test of the benchmark itself, one chunk per point on every workload.

    python3 -m pytest perfbench/test_smoke.py

It takes about 10 seconds on 2 CPUs.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import STAGES, WORKLOADS, missing_stages
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--chunks", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_and_report(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    assert report_line.startswith("report ")
    return json.loads(result_line), json.loads(report_line[len("report "):])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_and_tracing_keeps_ber_bytes(workload):
    plain, plain_report = result_and_report(run(workload, 0))
    traced, traced_report = result_and_report(run(workload, 1))
    for result, specs in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in specs
        }
    # one digest per run means every sweep of it, traced or not, wrote the
    # same ber.csv bytes; equal digests across the two runs extend that
    assert len(plain_report["ber_sha256"]) == 1
    assert traced_report["ber_sha256"] == plain_report["ber_sha256"]
    assert traced_report["throughput_kbps_traced"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tracer_fails_on_a_name_the_package_lost(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from mclink import engine

    monkeypatch.delattr(engine, "zf_detect")
    with pytest.raises(AttributeError, match="zf_detect"):
        Tracer().install()


def test_gate_names_a_span_that_was_never_entered():
    point = {"calls": {span: 1 for span in STAGES}}
    assert missing_stages(point) == []
    point["calls"]["mimo.build_effective"] = 0
    assert missing_stages(point) == ["mimo.build_effective"]
