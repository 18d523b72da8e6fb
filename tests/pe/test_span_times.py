"""The time-ordered scratchpad span tracker against the unsorted original.

``_SpanTimes`` keeps its spans latest-first and stops scanning early; the
original below (an unsorted list with an occasional sweep of expired
spans) is the oracle.  Both are only ever queried at floors at or past
the ``now`` of the last record, because the PE clock is monotone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pe.pe import _SpanTimes


class UnsortedSpanTimes:
    """The pre-change tracker: append, sweep past 24 spans, full scan."""

    _SWEEP = 24

    def __init__(self):
        self._spans = []

    def record(self, start, end, time, now):
        if end <= start:
            return
        spans = self._spans
        if len(spans) >= self._SWEEP:
            self._spans = spans = [s for s in spans if s[2] > now]
        spans.append((start, end, time))

    def max_over(self, start, end, floor):
        t = floor
        for s, e, tm in self._spans:
            if tm > t and s < end and start < e:
                t = tm
        return t


_ranges = st.tuples(st.integers(0, 48), st.integers(0, 16)).map(
    lambda r: (r[0], r[0] + r[1]))

# Times on a quarter-cycle grid, close together, so that spans often
# expire right at a record's ``now`` and queries land just below them.
_events = st.lists(st.tuples(
    st.booleans(),                # record (True) or query (False)
    _ranges,
    st.integers(0, 8),            # clock advance before the event, x 1/4
    st.integers(0, 24),           # ready time (record) or floor (query)
), min_size=1, max_size=120)      # past now, x 1/4


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(events=_events)
def test_sorted_spans_answer_like_the_unsorted_original(events):
    new, old = _SpanTimes(), UnsortedSpanTimes()
    now = 0.0
    for is_record, (start, end), advance, offset in events:
        now += advance / 4
        if is_record:
            new.record(start, end, now + offset / 4, now)
            old.record(start, end, now + offset / 4, now)
        else:
            floor = now + offset / 4
            assert new.max_over(start, end, floor) == \
                old.max_over(start, end, floor)


def test_expired_spans_are_dropped_on_record():
    spans = _SpanTimes()
    spans.record(0, 8, 5.5, 0.0)
    spans.record(8, 16, 9.0, 1.0)
    spans.record(24, 32, 6.25, 1.0)
    # At now=6 the span ready at 5.5 has expired; the one ready at 6.25,
    # a quarter cycle later, is still live.
    spans.record(16, 24, 12.0, 6.0)
    assert spans._spans == [(-12.0, 16, 24), (-9.0, 8, 16), (-6.25, 24, 32)]
    assert spans.max_over(0, 40, 6.0) == 12.0
    assert spans.max_over(0, 16, 6.0) == 9.0
    assert spans.max_over(24, 32, 6.0) == 6.25
    assert spans.max_over(0, 8, 6.0) == 6.0
