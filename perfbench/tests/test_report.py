"""BENCHMARK.json and the command agree; shares sum to one."""

import json
import os

import pytest

from perfbench import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def test_benchmark_json_names_what_the_command_prints():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_layer_shares_sum_to_one():
    table = {
        "sched.advance": {"calls": 2, "total_s": 5.0, "self_s": 3.0},
        "guest.resume": {"calls": 9, "total_s": 2.0, "self_s": 2.0},
        "par.run_cells": {"calls": 1, "total_s": 6.0, "self_s": 0.5},
        "unattributed.run": {"calls": 1, "total_s": 7.0, "self_s": 0.5},
    }
    metrics = run.layer_metrics(table)
    shares = [metrics[f"{layer}.self_share"] for layer in run.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["sched.self_share"] == pytest.approx(0.5)
    assert metrics["unattributed.self_share"] == pytest.approx(0.5 / 6)
    assert metrics["guest.resumes"] == 9


def test_native_memo_hit_ratio():
    table = {
        "experiments.native_cycles": {"calls": 4, "total_s": 1.0,
                                      "self_s": 0.1},
        "experiments.run_native": {"calls": 1, "total_s": 0.9,
                                   "self_s": 0.9},
    }
    metrics = run.layer_metrics(table)
    assert metrics["experiments.native_runs"] == 1
    assert metrics["experiments.native_memo_hit_ratio"] == 0.75
