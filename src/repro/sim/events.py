"""Structured simulation event log.

The experiment harness and the security evaluator both need to observe what
happened inside a run: enclave transitions, page faults, attack steps,
protocol messages.  Components append :class:`Event` records; consumers
filter by category.

The log sits on the simulator's hottest path (one ``sgx.ocall`` event per
simulated syscall in SGX mode), so the implementation is tuned for cheap
appends at campaign scale:

* :class:`Event` is a ``__slots__`` class — no per-instance ``__dict__``
  and no ``dataclass`` ``object.__setattr__`` machinery on construction,
* events live in a :class:`collections.deque`, so the optional capacity
  trim is an O(1)-amortised ``popleft`` ring instead of a list-slice copy
  of the surviving half on every overflow,
* a per-category count index makes :meth:`count` O(distinct categories)
  and lets :meth:`select` skip scanning when nothing matches.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence


class Event:
    """One simulation event.

    ``category`` is a dotted namespace (``sgx.eenter``, ``attack.escape``,
    ``net.http.request`` …); ``detail`` carries event-specific fields.
    """

    __slots__ = ("timestamp_ns", "category", "detail")

    def __init__(
        self,
        timestamp_ns: int,
        category: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.timestamp_ns = timestamp_ns
        self.category = category
        self.detail: Dict[str, Any] = {} if detail is None else detail

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(timestamp_ns={self.timestamp_ns}, "
            f"category={self.category!r}, detail={self.detail!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.timestamp_ns == other.timestamp_ns
            and self.category == other.category
            and self.detail == other.detail
        )

    # Defining __eq__ alone sets __hash__ to None and makes events
    # unusable in sets/dict keys.  Hash on the immutable identity fields
    # only: ``detail`` is a dict, so it cannot contribute, and leaving it
    # out keeps the invariant that equal events hash equal.
    def __hash__(self) -> int:
        return hash((self.timestamp_ns, self.category))


class EventLog:
    """Append-only event trace with category filtering."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._events: Deque[Event] = deque()
        self._capacity = capacity
        # Live event count per exact category; kept in lockstep with the
        # deque so prefix counts never rescan the log.
        self._counts: Dict[str, int] = {}

    def emit(self, timestamp_ns: int, category: str, **detail: Any) -> Event:
        event = Event(timestamp_ns, category, detail)
        events = self._events
        events.append(event)
        counts = self._counts
        counts[category] = counts.get(category, 0) + 1
        if self._capacity is not None and len(events) > self._capacity:
            # Drop the oldest half; the log is diagnostics, not ground truth.
            popleft = events.popleft
            for _ in range(len(events) // 2):
                old_category = popleft().category
                remaining = counts[old_category] - 1
                if remaining:
                    counts[old_category] = remaining
                else:
                    del counts[old_category]
        return event

    def emit_shared(
        self, timestamp_ns: int, category: str, detail: Dict[str, Any]
    ) -> Event:
        """Append an event whose ``detail`` dict is *shared* with the caller.

        Semantics match :meth:`emit` except the dict is stored by
        reference instead of being built from kwargs — hot emitters (the
        fused Gramine OCALL batch) keep one dict per syscall spec and
        reuse it across millions of events.  Callers must treat the dict
        as frozen after the first emit.
        """
        event = Event(timestamp_ns, category, detail)
        events = self._events
        events.append(event)
        counts = self._counts
        counts[category] = counts.get(category, 0) + 1
        if self._capacity is not None and len(events) > self._capacity:
            popleft = events.popleft
            for _ in range(len(events) // 2):
                old_category = popleft().category
                remaining = counts[old_category] - 1
                if remaining:
                    counts[old_category] = remaining
                else:
                    del counts[old_category]
        return event

    def emit_series(
        self,
        category: str,
        timestamps: Sequence[int],
        details: Sequence[Dict[str, Any]],
    ) -> None:
        """:meth:`emit_shared` for each ``(timestamp, detail)`` pair, in order.

        The fused Gramine OCALL replay emits one event per OCALL.  When
        no capacity trim can fire, the events are appended in one pass
        and the category index is settled once.
        """
        n = len(timestamps)
        if self.bulk_appender(n) is None:
            emit_shared = self.emit_shared
            for timestamp_ns, detail in zip(timestamps, details):
                emit_shared(timestamp_ns, category, detail)
            return
        self._events.extend(map(Event, timestamps, repeat(category, n), details))
        self.bump_count(category, n)

    def bulk_appender(self, n: int):
        """The deque's bound ``append`` when ``n`` appends cannot trim.

        Fused emitters (:meth:`emit_series`) construct :class:`Event`
        objects themselves and append them directly, settling the
        category index once per batch via :meth:`bump_count`.
        That is exact whenever the batch cannot trigger a capacity trim —
        always for an unbounded log, and for a bounded one whenever the
        ``n`` new events still fit under the bound (the common case: the
        log only crosses its bound once per ~capacity/2 events).  When a
        trim could fire mid-batch, returns ``None`` and callers fall back
        to :meth:`emit_shared` per event, which keeps the trim bookkeeping
        bit-exact.
        """
        capacity = self._capacity
        if capacity is None or len(self._events) + n <= capacity:
            return self._events.append
        return None

    def bump_count(self, category: str, n: int) -> None:
        """Settle the category index after ``n`` :meth:`bulk_appender` appends."""
        counts = self._counts
        counts[category] = counts.get(category, 0) + n

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def _count_matching(self, prefix: str, dotted: str) -> int:
        return sum(
            count
            for category, count in self._counts.items()
            if category == prefix or category.startswith(dotted)
        )

    def select(self, prefix: str) -> List[Event]:
        """All events whose category equals or starts with ``prefix.``."""
        dotted = prefix + "."
        if not self._count_matching(prefix, dotted):
            return []
        return [
            e for e in self._events if e.category == prefix or e.category.startswith(dotted)
        ]

    def count(self, prefix: str) -> int:
        return self._count_matching(prefix, prefix + ".")

    def clear(self) -> None:
        self._events.clear()
        self._counts.clear()
