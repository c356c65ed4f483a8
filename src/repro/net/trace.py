"""Network tracing: record every message for protocol debugging.

Attach a :class:`NetworkTracer` to a :class:`~repro.net.transport.Network`
and every send/delivery/drop is recorded with its virtual timestamp. The
query helpers slice by node, kind or time window; ``format_trace`` renders
a readable message-sequence listing — the tool we reach for when a
multicast protocol misbehaves.

Tracing is off by default (a busy simulation generates millions of
messages); enable it for focused runs::

    tracer = NetworkTracer()
    network.attach_tracer(tracer)
    ...
    print(format_trace(tracer.between(10.0, 12.5)))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

SENT = "sent"
DELIVERED = "delivered"
DROPPED = "dropped"


@dataclass
class TraceRecord:
    """One traced network event."""

    time: float
    event: str          # sent | delivered | dropped
    src: str
    dst: str
    kind: str
    size: int
    msg_id: int

    def __str__(self) -> str:
        arrow = {"sent": "->", "delivered": "=>", "dropped": "-X"}[self.event]
        return (f"{self.time:10.3f}  {self.src:>10} {arrow} {self.dst:<10} "
                f"{self.kind} ({self.size}B #{self.msg_id})")


class NetworkTracer:
    """Collects :class:`TraceRecord` entries from an attached network.

    Memory is bounded either way; the two modes differ in *which* records
    survive a full buffer:

    * ``ring=False`` (default, the historical behaviour) — keep the first
      ``capacity`` records and drop new ones: the run's *beginning*.
    * ``ring=True`` — a ring buffer: evict the oldest record for each new
      one, keeping the *most recent* window — the right mode for long
      runs where the interesting traffic is near the failure at the end.

    Either way, :attr:`evicted` counts the records lost, so a consumer can
    tell a complete trace from a truncated one.
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None,
                 capacity: int = 1_000_000, ring: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring = ring
        self._records: deque = deque(maxlen=capacity) if ring else deque()
        self._kind_filter = set(kinds) if kinds is not None else None
        self._capacity = capacity
        self.evicted = 0

    @property
    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def record(self, time: float, event: str, src: str, dst: str,
               kind: str, size: int, msg_id: int) -> None:
        if self._kind_filter is not None and kind not in self._kind_filter:
            return
        if len(self._records) >= self._capacity:
            self.evicted += 1
            if not self._ring:
                return  # bounded: never let tracing exhaust memory
            # deque(maxlen=capacity) drops the oldest on append below.
        self._records.append(TraceRecord(time, event, src, dst, kind, size,
                                         msg_id))

    def __len__(self) -> int:
        return len(self._records)

    # -- queries -----------------------------------------------------------

    def filter(self, predicate: Callable[[TraceRecord], bool]) \
            -> list[TraceRecord]:
        return [r for r in self._records if predicate(r)]

    def by_kind(self, kind: str) -> list[TraceRecord]:
        return self.filter(lambda r: r.kind == kind)

    def between(self, start: float, end: float) -> list[TraceRecord]:
        return self.filter(lambda r: start <= r.time < end)

    def dropped(self) -> list[TraceRecord]:
        return self.filter(lambda r: r.event == DROPPED)


def format_trace(records: Iterable[TraceRecord]) -> str:
    """Human-readable, time-ordered trace listing."""
    ordered = sorted(records, key=lambda r: (r.time, r.msg_id))
    return "\n".join(str(r) for r in ordered)
