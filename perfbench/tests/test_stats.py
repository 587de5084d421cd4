"""Percentiles, the ten-beyond rule and the Table 1 error."""

import pytest

from perfbench import stats


def test_p95_of_225_samples_leaves_eleven_beyond():
    values = list(range(1, 226))
    assert stats.beyond(0.95, 225) == 11
    assert stats.percentile(values, 0.95) == 214


def test_p99_needs_a_thousand_samples():
    assert stats.beyond(0.99, 1000) == 10
    assert stats.beyond(0.99, 999) < 10
    values = list(range(1, 1001))
    assert stats.tail(values, 0.99) == (0.99, 990)


def test_tail_level_drops_to_keep_ten_beyond():
    values = list(range(1, 25))
    level, value = stats.tail(values, 0.90)
    assert level == pytest.approx(14 / 24)
    assert value == 14
    assert 24 - value == 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)), 0.5)


def test_p50_is_the_median():
    assert stats.median([5, 1, 3, 2, 4]) == 3
    assert stats.median([1, 2, 3, 4]) == 2.5
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2


def _cell(agent, variants, slowdown):
    from repro.experiments.runner import ExperimentResult

    return ExperimentResult(benchmark="fft", agent=agent,
                            variants=variants, native_cycles=100.0,
                            mvee_cycles=100.0 * slowdown, verdict="clean",
                            sync_ops=0, syscalls=0, stall_cycles=0.0)


def test_table1_error_is_zero_on_the_paper_values():
    from repro.experiments.tables import TABLE1_PAPER

    cells = [_cell(a, v, s) for (a, v), s in TABLE1_PAPER.items()]
    assert stats.table1_error(cells) == pytest.approx(0.0)


def test_table1_error_is_the_mean_relative_error():
    from repro.experiments.tables import TABLE1_PAPER

    # Every pair 10% above the paper, except one 30% below.
    pairs = list(TABLE1_PAPER.items())
    cells = [_cell(a, v, s * 1.1) for (a, v), s in pairs[1:]]
    (a, v), s = pairs[0]
    cells += [_cell(a, v, s * 0.7), _cell(a, v, s * 0.7)]
    expected = (0.3 + 0.1 * (len(pairs) - 1)) / len(pairs)
    assert stats.table1_error(cells) == pytest.approx(expected)
