"""Happens-before race detector: hooks, HB edges, classification."""

import pytest

from repro.core.mvee import run_mvee
from repro.perf.costs import CostModel
from repro.races import RaceDetector, granule_of
from tests.guestlib import MutexCounterProgram, VolatileFlagProgram

FAST = CostModel(monitor_syscall_overhead=2_000.0,
                 preempt_quantum=20_000.0)


def run_with_detector(program, detector, instrument=None, seed=1,
                      variants=2, **kwargs):
    return run_mvee(program, variants=variants, agent="wall_of_clocks",
                    seed=seed, costs=FAST, races=detector,
                    **({"instrument": instrument}
                       if instrument is not None else {}),
                    **kwargs)


class TestGranule:
    def test_eight_byte_aliasing(self):
        base = 0x1000
        assert len({granule_of(base + off) for off in range(8)}) == 1

    def test_neighbours_distinct(self):
        assert granule_of(0x1000) != granule_of(0x1008)


class TestVolatileFlagRace:
    """The Listing-2 workload: bare flag accesses must race."""

    def run_bare(self, seed=1):
        detector = RaceDetector()
        outcome = run_with_detector(
            VolatileFlagProgram(), detector,
            instrument=lambda site: not site.startswith("volatile."))
        return detector.report, outcome

    def test_flag_sites_race(self):
        report, outcome = self.run_bare()
        assert report.races, "bare volatile flag must race"
        assert report.race_sites() <= {"volatile.flag.raise.store",
                                       "volatile.flag.poll.load"}
        kinds = {race.kind for race in report.races}
        assert kinds <= {"write-read", "read-write", "write-write"}

    def test_run_still_completes(self):
        _, outcome = self.run_bare()
        assert outcome.verdict in ("clean", "divergence")

    def test_occurrences_accumulate(self):
        """The spin loop re-polls: dedup keeps races distinct while the
        occurrence counter keeps counting."""
        report, _ = self.run_bare()
        assert report.total_occurrences >= len(report.races)

    def test_fully_instrumented_no_races(self):
        detector = RaceDetector()
        run_with_detector(VolatileFlagProgram(), detector)
        assert not detector.report.races
        assert detector.report.sync_ops_seen > 0
        assert detector.report.plain_accesses_checked == 0


class TestInstrumentedLockstep:
    def test_mutex_counter_no_false_positives(self):
        detector = RaceDetector()
        outcome = run_with_detector(
            MutexCounterProgram(workers=3, iters=20), detector)
        assert outcome.verdict == "clean"
        assert not detector.report.races
        assert detector.report.sync_ops_seen > 0
        assert detector.report.hb_edges > 0

    def test_forced_plain_classification_races(self):
        """Treating every site as un-identified turns the mutex's own
        accesses into racing plain accesses — the detector's positive
        control."""
        detector = RaceDetector(sync_sites=lambda site: False)
        run_with_detector(MutexCounterProgram(workers=3, iters=20),
                          detector)
        assert detector.report.races
        assert detector.report.sync_ops_seen == 0

    def test_zero_cost_when_detached(self):
        baseline = run_with_detector(
            MutexCounterProgram(workers=3, iters=20), None)
        detector = RaceDetector()
        detected = run_with_detector(
            MutexCounterProgram(workers=3, iters=20), detector)
        assert detected.cycles == baseline.cycles
        assert detected.stdout == baseline.stdout


class TestReportMechanics:
    def _racy_report(self, max_races=1024):
        detector = RaceDetector(sync_sites=lambda site: False,
                                max_races=max_races)
        run_with_detector(MutexCounterProgram(workers=3, iters=20),
                          detector)
        return detector.report

    def test_max_races_cap_suppresses(self):
        full = self._racy_report()
        assert len(full.races) > 1
        capped = self._racy_report(max_races=1)
        assert len(capped.races) == 1
        assert capped.suppressed > 0

    def test_dedup_key_is_site_pair(self):
        report = self._racy_report()
        keys = {(r.variant, r.kind, r.prior.site, r.current.site)
                for r in report.races}
        assert len(keys) == len(report.races)
        assert set(report.occurrences) == keys

    def test_records_carry_thread_and_cycles(self):
        report = self._racy_report()
        race = report.races[0]
        for access in (race.prior, race.current):
            assert access.thread
            assert access.at_cycles >= 0.0
            assert access.granule == granule_of(access.granule << 3)

    def test_summary_and_str_render(self):
        report = self._racy_report()
        assert "race" in report.summary()
        text = str(report.races[0])
        assert "@" in text and report.races[0].kind in text

    def test_outcome_carries_report(self):
        detector = RaceDetector()
        outcome = run_with_detector(
            MutexCounterProgram(workers=2, iters=10), detector)
        assert outcome.races is detector.report

    def test_outcome_none_without_detector(self):
        outcome = run_with_detector(
            MutexCounterProgram(workers=2, iters=10), None)
        assert outcome.races is None


class TestHBEdgesDirect:
    """Unit-level checks against the detector's edge builders."""

    class FakeThread:
        def __init__(self, global_id):
            self.global_id = global_id
            self.logical_id = global_id.split(":", 1)[1]

    def test_spawn_orders_child_after_parent(self):
        detector = RaceDetector()
        parent = self.FakeThread("v0:t0")
        child = self.FakeThread("v0:w1")
        detector._vc("v0:t0").tick("v0:t0")
        snapshot = detector._vc("v0:t0").copy()
        detector.thread_spawned(parent, child)
        assert detector._vc("v0:w1").dominates(snapshot)
        # parent advanced past the fork point
        assert detector._vc("v0:t0").get("v0:t0") \
            == snapshot.get("v0:t0") + 1

    def test_join_absorbs_target_history(self):
        detector = RaceDetector()
        joiner = self.FakeThread("v0:t0")
        target = self.FakeThread("v0:w1")
        detector._vc("v0:w1").tick("v0:w1")
        final = detector._vc("v0:w1").copy()
        detector.thread_joined(joiner, target)
        assert detector._vc("v0:t0").dominates(final)

    def test_futex_wake_orders_wakees(self):
        detector = RaceDetector()
        detector._vc("v0:t0").tick("v0:t0")
        published = detector._vc("v0:t0").copy()
        detector.futex_wake(0, 0x10, ["v0:w1", "v0:w2"], "v0:t0")
        for wakee in ("v0:w1", "v0:w2"):
            assert detector._vc(wakee).dominates(published)

    def test_wake_without_wakees_is_noop(self):
        detector = RaceDetector()
        detector.futex_wake(0, 0x10, [], "v0:t0")
        assert detector.report.hb_edges == 0

    def test_reset_variant_drops_only_that_variant(self):
        detector = RaceDetector()
        detector._vc("v0:t0")
        detector._vc("v1:t0")
        detector._sync_vc[(1, 5)] = detector._vc("v1:t0").copy()
        detector.variant_restarted(1)
        assert "v1:t0" not in detector._threads
        assert "v0:t0" in detector._threads
        assert (1, 5) not in detector._sync_vc
