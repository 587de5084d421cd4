"""``ContentionTracker.access`` slides each line's window inline; it must
report the same sharer counts as a plain deque + Counter model of "the
distinct other threads among a line's last ``window`` accessors"."""

from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.contention import ContentionTracker, SharedLineModel


class ReferenceTracker:
    """The straightforward model: recount each line's window per access."""

    def __init__(self, window: int):
        self.window = window
        self.lines: dict[object, deque] = {}

    def access(self, key, thread_id: str) -> int:
        recent = self.lines.setdefault(key, deque(maxlen=self.window))
        recent.append(thread_id)
        return len(Counter(recent)) - 1


accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.sampled_from(["v0:main", "v0:main/1", "v1:main",
                               "v1:main/1", "v2:main/2"])),
    max_size=200)


class TestTrackerMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(window=st.integers(min_value=1, max_value=32), stream=accesses)
    def test_same_sharer_sequence(self, window, stream):
        tracker = ContentionTracker(window=window)
        reference = ReferenceTracker(window)
        assert ([tracker.access(key, thread) for key, thread in stream]
                == [reference.access(key, thread)
                    for key, thread in stream])
        assert tracker.line_count() == len(reference.lines)

    @settings(max_examples=100, deadline=None)
    @given(window=st.integers(min_value=1, max_value=32), stream=accesses)
    def test_single_line_view_matches_reference(self, window, stream):
        line = SharedLineModel(window=window)
        reference = ReferenceTracker(window)
        assert ([line.access(thread) for _, thread in stream]
                == [reference.access(None, thread) for _, thread in stream])
