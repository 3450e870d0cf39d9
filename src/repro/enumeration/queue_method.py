"""Uno's output-queue method (Theorem 20), event-driven formulation.

The improved enumeration tree guarantees *amortized* O(n+m) work per
solution, but solutions cluster at leaves: between two outputs the
traversal may climb and descend many internal nodes, making the raw delay
Ω(|W|(n+m)).  Uno's output-queue method fixes this by buffering the first
few solutions (the paper primes with ``n``) and thereafter releasing one
buffered solution per bounded window of traversal events.  Because every
internal node of the improved tree has ≥ 2 children, leaves (each carrying
one fresh solution) appear at least once per constant-length window of the
Euler tour, so the buffer never runs dry after priming (the paper's rules
R1–R3 / Lemma 18 make this precise).

Following DESIGN.md §5, we implement the *event-driven* formulation: the
enumerator emits ``discover``/``examine``/``solution`` events and
:func:`regulate` releases one solution per ``window`` events once primed.
The observable guarantee is identical — the maximum number of events (each
costing O(n+m)) between consecutive outputs is bounded — and it is what
the AB-queue ablation benchmark measures directly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, Optional

from repro.enumeration.events import SOLUTION, Event

#: Default number of traversal events per released solution.  The paper's
#: analysis (Theorem 20) shows at least one solution is found per ~20-node
#: stretch of the Euler tour of the improved tree; 4 is the tight constant
#: for binary trees (the worst improved tree) and is validated empirically
#: by the AB-queue ablation.
DEFAULT_WINDOW = 4


class OutputQueue:
    """Theorem 20's release rule over a machine's event stream.

    Pulls events from ``machine.advance()`` (``None`` at the end of the
    stream): the first ``prime`` solutions are buffered, then one
    buffered solution is released per ``window`` non-solution events,
    and whatever is still buffered is flushed when the stream ends.
    :meth:`advance` returns the next released solution, ``None`` once
    everything has been released.  This is the one copy of the rule:
    :func:`regulate`, :class:`RegulatorProbe` and the suspendable
    :class:`repro.core.suspend.RegulatedSearch` all drive it.
    """

    def __init__(self, machine, prime: int, window: int = DEFAULT_WINDOW) -> None:
        self.machine = machine
        self.prime = max(1, int(prime))
        self.window = max(1, int(window))
        self.buffer: deque = deque()
        self.primed = False
        self.events_since_release = 0
        self.drained = False

    def advance(self) -> Any:
        """The next released solution, or ``None`` when exhausted."""
        while not self.drained:
            event = self.machine.advance()
            if event is None:
                self.drained = True
            elif event[0] == SOLUTION:
                # Solutions refill the buffer but do not advance the release
                # window: on the improved tree, one solution arrives per
                # ~window traversal events, so counting solutions too would
                # make releases outpace arrivals and starve the buffer.
                self.buffer.append(event[1])
                if not self.primed and len(self.buffer) >= self.prime:
                    self.primed = True
                    self.events_since_release = 0
            else:
                self.events_since_release += 1
                if (
                    self.primed
                    and self.buffer
                    and self.events_since_release >= self.window
                ):
                    return self._release()
        return self.buffer.popleft() if self.buffer else None

    def _release(self) -> Any:
        """A window closed: hand out the oldest buffered solution."""
        self.events_since_release = 0
        return self.buffer.popleft()


class _EventSource:
    """``advance()`` over an event iterable (``None`` at its end)."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self._events = iter(events)

    def advance(self) -> Optional[Event]:
        return next(self._events, None)


def regulate(
    events: Iterable[Event],
    prime: int,
    window: int = DEFAULT_WINDOW,
) -> Iterator[Any]:
    """Re-time an event stream into a steady solution stream.

    Parameters
    ----------
    events:
        Event stream from an enumerator running in event mode.
    prime:
        Number of solutions to buffer before the first release (the paper
        uses ``n``).  If the enumeration has fewer solutions than
        ``prime``, everything is flushed at the end — the delay guarantee
        is vacuous but no solution is lost.
    window:
        Release one solution per ``window`` consumed events once primed.

    Yields
    ------
    Solutions, each exactly once, in a possibly re-timed order (solutions
    are released FIFO; the *set* of solutions is unchanged).
    """
    queue = OutputQueue(_EventSource(events), prime, window)
    while True:
        solution = queue.advance()
        if solution is None:
            return
        yield solution


class _ProbedQueue(OutputQueue):
    """An output queue that reports its windows to a :class:`RegulatorProbe`."""

    def __init__(self, probe: "RegulatorProbe", events: Iterable[Event]) -> None:
        super().__init__(_EventSource(self._count(events)), probe.prime, probe.window)
        self.probe = probe

    def _count(self, events: Iterable[Event]) -> Iterator[Event]:
        for event in events:
            if event[0] != SOLUTION and not self.primed:
                self.probe.priming_events += 1
            yield event

    def _release(self) -> Any:
        self.probe.gaps.append(self.events_since_release)
        return super()._release()


class RegulatorProbe:
    """Runs the :class:`OutputQueue` and records event-gaps between outputs.

    ``max_gap`` is the maximum number of events between two consecutive
    released solutions *after priming* — the quantity Theorem 20 bounds by
    a constant (each event costs O(n+m), so delay = O(n+m)).
    ``priming_events`` counts the non-solution events consumed before
    priming.
    """

    def __init__(self, prime: int, window: int = DEFAULT_WINDOW) -> None:
        self.prime = prime
        self.window = window
        self.gaps: list = []
        self.priming_events = 0

    def run(self, events: Iterable[Event]) -> Iterator[Any]:
        """Drive the regulator over ``events``, recording gaps; yield
        solutions."""
        if self.prime < 1:
            self.prime = 1
        queue = _ProbedQueue(self, events)
        while True:
            solution = queue.advance()
            if solution is None:
                break
            yield solution

    @property
    def max_gap(self) -> int:
        """Worst post-priming event gap between two outputs."""
        return max(self.gaps) if self.gaps else 0
