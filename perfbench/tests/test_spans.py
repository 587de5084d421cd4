"""Self-time arithmetic and the span file round trip."""

import threading

import pytest

from perfbench import spans


def test_overlapping_children_are_covered_once():
    # parent [0, 10]; children [1, 6] and [4, 9] overlap on [4, 6].
    start = [0.0, 1.0, 4.0]
    end = [10.0, 6.0, 9.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx(
        [2.0, 5.0, 5.0])


def test_child_past_its_parent_is_clipped():
    start = [0.0, 8.0]
    end = [10.0, 14.0]
    parent = [-1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx(
        [8.0, 6.0])


def test_nested_grandchildren_count_only_against_their_parent():
    start = [0.0, 2.0, 3.0]
    end = [10.0, 8.0, 5.0]
    parent = [-1, 0, 1]
    assert spans.self_times(start, end, parent) == pytest.approx(
        [4.0, 4.0, 2.0])


def test_wait_span_self_time_is_its_busy_part():
    start = [0.0, 1.0]
    end = [10.0, 9.0]
    parent = [-1, 0]
    selfs = spans.self_times(start, end, parent, busy={1: 0.5})
    assert selfs == pytest.approx([2.0, 0.5])


def test_unclosed_span_has_no_self_time():
    assert spans.self_times([0.0, 1.0], [0.0, 2.0], [-1, 0]) == [0.0, 1.0]


def test_covered_length_merges_and_clips():
    assert spans.covered_length(0, 10, [(1, 3), (2, 4), (6, 12)]) == 7
    assert spans.covered_length(0, 10, []) == 0
    assert spans.covered_length(0, 10, [(-5, -1), (11, 12)]) == 0


def test_recorder_round_trip_and_aggregate(tmp_path):
    recorder = spans.SpanRecorder("run-1", str(tmp_path))
    outer = recorder.code_for("sched.advance")
    inner = recorder.code_for("guest.resume")

    def work():
        buf, a = recorder.open(outer)
        for _ in range(3):
            buf2, b = recorder.open(inner)
            recorder.close(buf2, b)
        recorder.close(buf, a)

    work()
    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert recorder.flush() == 8
    other = spans.SpanRecorder("run-2", str(tmp_path))
    buf, index = other.open(other.code_for("sched.advance"))
    other.close(buf, index)
    other.flush()

    threads = spans.load_run(str(tmp_path), "run-1")
    assert len(threads) == 2
    for data in threads:
        assert list(data["parent"]) == [-1, 0, 0, 0]
        assert data["run_id"] == "run-1"
    table = spans.aggregate(threads)
    assert table["sched.advance"]["calls"] == 2
    assert table["guest.resume"]["calls"] == 6
    total = sum(row["total_s"] for name, row in table.items()
                if name == "sched.advance")
    selfs = sum(row["self_s"] for row in table.values())
    assert selfs == pytest.approx(total)
