"""``repro bench`` on hosts with fewer CPUs than jobs: the speedup is
written as ``null`` with a note instead of a time-sliced ratio."""

import os

from repro.par.bench import render_bench, run_bench, speedup_note
from repro.prof.regress import (
    compare_reports,
    exit_code,
    render_findings,
    trajectory_entry,
)


class TestSpeedupNote:
    def test_fewer_cpus_than_jobs_is_not_meaningful(self):
        assert "not meaningful" in speedup_note(1, 4)

    def test_enough_cpus_or_unknown_count_is_meaningful(self):
        assert speedup_note(4, 4) is None
        assert speedup_note(8, 2) is None
        assert speedup_note(None, 4) is None


class TestSmallHostReport:
    def test_null_speedup_flows_through_report_compare_and_trajectory(
            self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = run_bench(jobs=2, quick=True, env="process",
                           out_path=None)
        assert report["host"]["cpu_count"] == 1
        assert report["parallel"]["warm_wall_s"] > 0
        assert report["speedup"] is None
        assert report["speedup_warm"] is None
        assert "not meaningful" in report["speedup_note"]
        # The cells still ran and matched the serial phase.
        assert report["identical"] is True
        text = render_bench(report)
        assert "speedup  : not meaningful" in text
        findings = compare_reports(report, report)
        assert exit_code(findings) == 0
        assert "digest identical" in render_findings(findings)
        entry = trajectory_entry(report)
        assert entry["serial_wall_s"] == round(report["serial"]["wall_s"], 3)
