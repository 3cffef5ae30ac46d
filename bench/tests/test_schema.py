"""BENCHMARK.json against the driver's contract and against what a run emits."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.spec import DRIVER_END_TO_END, WORKLOADS, metrics_by_name
from bench.suite import failures_of, run_set, value_of

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_set():
    return run_set(11, quick=True, reps=2)


def test_contract_fields(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["bench"]
    assert declared["command"][:3] == ["python3", "-m", "bench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in declared["workloads"]} == WORKLOADS
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert 1 <= len(declared["end_to_end"]) <= 16 and 1 <= len(declared["per_layer"]) <= 128
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    everything = declared["workloads"] + declared["end_to_end"] + declared["per_layer"]
    names = [entry["name"] for entry in everything]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_benchmark_json_agrees_with_spec(declared):
    known = metrics_by_name()
    listed = declared["end_to_end"] + declared["per_layer"]
    assert {m["name"] for m in listed} == set(known)
    assert tuple(m["name"] for m in declared["end_to_end"]) == DRIVER_END_TO_END
    for metric in listed:
        assert (metric["unit"], metric["better"]) == (
            known[metric["name"]].unit, known[metric["name"]].better)
    for metric in declared["end_to_end"]:
        assert known[metric["name"]].workloads == tuple(WORKLOADS)
        if known[metric["name"]].clock == "host":
            assert metric["bound"] == known[metric["name"]].bound


def test_quick_set_is_green_and_emits_every_declared_metric(declared, quick_set):
    assert failures_of(quick_set) == []
    assert [
        f"{workload}: {metric.name}"
        for metric in metrics_by_name().values()
        for workload in metric.workloads
        if value_of(quick_set, workload, metric.name) is None
    ] == []
    assert list(quick_set["workloads"]) == list(WORKLOADS)
    assert quick_set["claim"] is None
    for workload, result in quick_set["workloads"].items():
        assert all(NAME.match(name) for name in result["values"])
        for metric in declared["end_to_end"]:
            assert value_of(quick_set, workload, metric["name"]) not in (None, 0.0)
        assert result["attempted"] >= 1 and result["failed"] == 0
        shares = result["traced"]["profiler_attributed_share"]
        assert 0.5 < shares <= 1.0
        ledger = sum(sample["value"] for name, sample in result["values"].items()
                     if name.endswith("self_us_per_commit"))
        assert ledger > 0
    assert all(NAME.match(name) for name in quick_set["probes"])
    assert {"git_rev", "python", "nproc", "cpu_model", "PYTHONHASHSEED", "gc",
            "seed"} <= set(quick_set["environment"])


def test_without_the_program_the_command_fails_and_prints_no_result(declared, tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    command = [sys.executable if part == "python3" else part for part in declared["command"]]
    done = subprocess.run(
        command + ["--workload", "flat_update", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
