"""repro.races — two-sided race detection for the sync-op pipeline.

Static side (:mod:`repro.races.lockset`): an Eraser-style lockset lint
over the analysis mini-IR, reusing the Steensgaard/Andersen points-to
results to find shared globals with no consistently-held lock.

Dynamic side (:mod:`repro.races.detector`): a FastTrack-style
vector-clock happens-before detector subscribed to the observer bus
(:mod:`repro.obs.bus`), reporting unordered conflicting accesses at
un-identified sites.

Cross-checker (:mod:`repro.races.coverage`): diffs dynamic race reports
against the statically identified site set — each gap *is* the
Listing-2 false negative, named and paired with a remediation.

Deadlock side (:mod:`repro.races.deadlock`): per-variant held-sets and a
runtime wait-for-graph, another observer-bus subscriber, detecting
guest lock-order deadlocks at cycle formation — the
dynamic mirror of :mod:`repro.analysis.lockorder`.
"""

from repro.races.coverage import (
    REFACTOR,
    TREAT_VOLATILE,
    CoverageGap,
    CoverageReport,
    corroborate,
    cross_check,
    primitive_of,
)
from repro.races.deadlock import (
    DeadlockDetector,
    DeadlockRecord,
    DeadlockReport,
    DeadlockThread,
)
from repro.races.detector import (
    AccessRecord,
    RaceDetector,
    RaceRecord,
    RaceReport,
    granule_of,
)
from repro.races.lockset import (
    LintAccess,
    RaceCandidate,
    RaceLint,
    lint_corpus,
    lint_module,
)
from repro.races.vc import Epoch, VectorClock, join

__all__ = [
    "REFACTOR",
    "TREAT_VOLATILE",
    "AccessRecord",
    "CoverageGap",
    "CoverageReport",
    "DeadlockDetector",
    "DeadlockRecord",
    "DeadlockReport",
    "DeadlockThread",
    "Epoch",
    "LintAccess",
    "RaceCandidate",
    "RaceDetector",
    "RaceLint",
    "RaceRecord",
    "RaceReport",
    "VectorClock",
    "corroborate",
    "cross_check",
    "granule_of",
    "join",
    "lint_corpus",
    "lint_module",
    "primitive_of",
]
