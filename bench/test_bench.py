"""Tiny-size checks of the benchmark harness itself."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(run.__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
TINY = ["--seed", "3", "--seconds", "0.3", "--size", "60", "200"]


def bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    lines, result = bench("--workload", workload, "--trace", "0", *TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in DECLARED["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] == got["value"]          # not NaN
        row = next(line.split() for line in lines if line.startswith(m["name"] + " "))
        assert row[2:4] == [m["unit"], m["better"]]
    assert len(result["metrics"]) == len(DECLARED["end_to_end"])
    # the request counts are fixed by the spec, whatever the program's speed
    import workloads
    timings = json.loads(lines[-2])["detail"]["timings"]
    for kind, count in workloads.SPECS[workload].requests.items():
        expected = max(1, round(count * 0.3 / run.REF_SECONDS))
        assert timings[f"{kind}_p50_ms"]["samples"] == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    runs = [bench("--workload", workload, "--trace", "1", *TINY)[1] for _ in range(2)]
    names = [m["name"] for m in DECLARED["per_layer"]]
    assert all(set(r["metrics"]) == set(names) for r in runs)
    counters = [n for n in names if not n.endswith(".s") and not n.startswith("trace.overhead")]
    first, second = ({n: r["metrics"][n]["value"] for n in counters} for r in runs)
    assert first == second
    assert runs[0]["correct"] and first["trace.spans"] > 0


def test_declared_metrics_match_the_code():
    import tracing
    import workloads
    assert WORKLOADS == list(workloads.SPECS)
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} \
        == tracing.metric_specs()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
