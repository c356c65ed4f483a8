"""Causal command spans over virtual time.

A *trace* is one client command, identified by its command id. Its *root
span* covers submission to final reply; child spans mark the protocol
stages the command (and its derived requests — consults, moves) passed
through. Two kinds of child spans exist:

* **stage spans** (``stage=True``) — client-side waits. Every ``yield``
  a client performs while running a command is bracketed by exactly one
  stage span, so per-command stage durations sum to the end-to-end
  latency exactly (client code between yields consumes no virtual time).
* **server spans** (``stage=False``) — where the time actually went:
  ordering (multicast submit to delivery), executor queueing, execution,
  exchange coordination, oracle handling. They overlap stage spans and
  each other (several replicas process the same command) and exist for
  the per-command timeline, not for the additive breakdown.

Determinism: span ids are per-trace sequence numbers assigned in event
order, and all timestamps are virtual — the same seed yields a
byte-identical span stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Span names used by the instrumented protocol layers.
STAGE_NAMES = ("queue", "order", "consult", "move", "execute", "exchange",
               "retry-wait")

ROOT_NAME = "command"


def trace_id_of(cid: str) -> str:
    """Trace id for a (possibly derived) command id.

    Derived requests suffix the root command id with ``:c<n>`` (consult),
    ``:m<n>`` (client move), ``:omove`` (oracle move); the root id itself
    contains no colon.
    """
    return cid.split(":", 1)[0]


@dataclass
class Span:
    """One named interval of a command's life, in virtual ms."""

    trace: str                      # root command id
    span_id: str
    parent: Optional[str]           # root span id, or None for the root
    name: str
    node: str                       # node that spent the time
    start: float
    end: float
    stage: bool = False             # client stage span (latency partition)
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Disabled tracer: every instrumentation hook is a no-op.

    Hot paths guard on :attr:`enabled` before building span metadata, so
    a disabled tracer adds no measurable work and — because spans never
    touch the event queue or any RNG — tracing on or off can never change
    simulation results.
    """

    enabled = False

    def begin_trace(self, cid: str, node: str, start: float,
                    op: str = "") -> None:
        pass

    def end_trace(self, cid: str, end: float, **meta) -> None:
        pass

    def span(self, trace: str, name: str, node: str, start: float,
             end: float, stage: bool = False, **meta) -> None:
        pass

    def mark_send(self, cid: str, time: float) -> None:
        pass

    def sent_at(self, cid: str) -> Optional[float]:
        return None


NULL_TRACER = NullTracer()


class CommandTracer(NullTracer):
    """Collects :class:`Span` records from instrumented protocol layers."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._seq: dict[str, int] = {}          # trace -> next child seq
        self._open: dict[str, tuple[float, str, str]] = {}  # cid -> open root
        self._sends: dict[str, float] = {}      # request cid -> last send time

    # -- root spans --------------------------------------------------------

    def begin_trace(self, cid: str, node: str, start: float,
                    op: str = "") -> None:
        """Open the root span of command ``cid`` at virtual time ``start``."""
        self._open[cid] = (start, node, op)

    def end_trace(self, cid: str, end: float, **meta) -> None:
        """Close the root span; ``meta`` records the command's outcome."""
        opened = self._open.pop(cid, None)
        if opened is None:
            return
        start, node, op = opened
        if op:
            meta.setdefault("op", op)
        self.spans.append(Span(trace=cid, span_id=f"{cid}#root", parent=None,
                               name=ROOT_NAME, node=node, start=start,
                               end=end, meta=meta))

    def open_traces(self) -> list[str]:
        """Command ids whose root span never closed (stuck commands)."""
        return sorted(self._open)

    # -- child spans -------------------------------------------------------

    def span(self, trace: str, name: str, node: str, start: float,
             end: float, stage: bool = False, **meta) -> None:
        seq = self._seq.get(trace, 0)
        self._seq[trace] = seq + 1
        self.spans.append(Span(trace=trace, span_id=f"{trace}#{seq}",
                               parent=f"{trace}#root", name=name, node=node,
                               start=start, end=end, stage=stage, meta=meta))

    # -- send marks (for "order" spans at the receiving server) ------------

    def mark_send(self, cid: str, time: float) -> None:
        """Record when request ``cid`` was last multicast."""
        self._sends[cid] = time

    def sent_at(self, cid: str) -> Optional[float]:
        return self._sends.get(cid)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]


def spans_by_trace(spans: Iterable[Span]) -> dict[str, list[Span]]:
    """Group spans by trace id, preserving record order."""
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace, []).append(span)
    return grouped
