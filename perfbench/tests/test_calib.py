"""The host-speed reference and the scaling of repetitions."""

import pytest

from perfbench import calib, run


def test_scale_is_the_reference_over_the_median_probe():
    ref = calib.REFERENCE_S
    assert calib.scale([ref, ref]) == pytest.approx(1.0)
    # A host twice as slow as the reference halves reported times.
    assert calib.scale([2 * ref, 2 * ref, 2 * ref]) == pytest.approx(0.5)
    # One probe that caught a burst moves nothing.
    assert calib.scale([ref, ref, 9 * ref]) == pytest.approx(1.0)


def test_reference_work_is_fixed():
    heap, starts = calib.build_heap()
    first = calib.reference_work(heap, starts)
    heap, starts = calib.build_heap()
    assert calib.reference_work(heap, starts) == first


def test_probe_runs_processes_and_reports_a_mean():
    value = calib.probe(2, run.ROOT, seconds=0.2)
    assert 0.0 < value < 1.0


def test_metrics_take_best_of_then_scale():
    # 20 cells: the p95 needs ten samples beyond it, so it falls back
    # to p50 here; the test is about the scaling.
    sweeps = [
        {"durations": [0.2] * 10 + [0.4] * 10, "wall_s": 4.0, "cells": 20},
        {"durations": [0.3] * 10 + [0.3] * 10, "wall_s": 3.0, "cells": 20},
    ]
    raw = run.fig5_metrics(sweeps, steps=100)
    # Per cell, the fastest repetition: 0.2 and 0.3 s.
    assert raw["steps_per_s"] == pytest.approx(100 / 5.0)
    assert raw["throughput_per_s"] == pytest.approx(20 / 3.0)
    assert raw["latency_p50_ms"] == pytest.approx(250.0)
    scaled = run.fig5_metrics(sweeps, steps=100, scale=0.5)
    assert scaled["steps_per_s"] == pytest.approx(100 / 2.5)
    assert scaled["throughput_per_s"] == pytest.approx(40 / 3.0)
    assert scaled["latency_p50_ms"] == pytest.approx(125.0)
