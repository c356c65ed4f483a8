"""Operation histories for linearizability checking."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_op_counter = itertools.count()


@dataclass
class Operation:
    """One completed operation in a concurrent history."""

    client: str
    op: str
    args: dict
    result: Any
    invoked_at: float
    responded_at: float
    op_id: int = field(default_factory=lambda: next(_op_counter))

    def __post_init__(self):
        if self.responded_at < self.invoked_at:
            raise ValueError("response before invocation")


class History:
    """An append-only collection of completed operations.

    Tests record one entry per completed client command; pending operations
    (no response observed) are conservatively droppable for the protocols
    tested here because every recorded test run quiesces before checking.
    """

    def __init__(self):
        self.operations: list[Operation] = []

    def record(self, client: str, op: str, args: dict, result: Any,
               invoked_at: float, responded_at: float) -> Operation:
        operation = Operation(client=client, op=op, args=dict(args),
                              result=result, invoked_at=invoked_at,
                              responded_at=responded_at)
        self.operations.append(operation)
        return operation

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)
