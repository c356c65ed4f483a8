"""Wing–Gong linearizability checker.

``check_linearizable(history, spec)`` searches for a permutation of the
history that (i) respects real-time precedence and (ii) is legal under the
sequential specification. Exponential in the worst case — intended for the
small, highly concurrent histories the property tests generate (tens of
operations) — with memoisation on (remaining-operations, state) to keep
typical runs fast.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterator, Optional

from repro.checkers.history import History, Operation


class SequentialSpec(ABC):
    """A deterministic sequential model of the service."""

    @abstractmethod
    def initial_state(self) -> Any:
        """The state the history starts from."""

    @abstractmethod
    def apply(self, state: Any, operation: Operation) -> tuple[bool, Any]:
        """Apply ``operation`` to ``state``.

        Returns ``(legal, new_state)`` where ``legal`` is False when the
        operation's recorded result is impossible at this point.
        """

    @abstractmethod
    def fingerprint(self, state: Any) -> Hashable:
        """Hashable digest of a state (for memoisation)."""


#: Verdicts of the budgeted checker (:func:`check_linearizable_bounded`).
LINEARIZABLE = "linearizable"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"


class _BudgetExceeded(Exception):
    """Internal: the search explored more states than its budget allows."""


def _search_linearization(history: History, spec: SequentialSpec,
                          max_nodes: int) -> bool:
    """True iff a legal linearization exists; raises :class:`_BudgetExceeded`
    when the search touches more than ``max_nodes`` distinct states.

    The search memoises on (remaining operation set, state fingerprint):
    two paths reaching the same frontier with the same abstract state
    explore the identical subtree, so the second is pruned — the property
    that keeps typical histories polynomial in practice.
    """
    operations = list(history)
    if not operations:
        return True
    remaining_all = frozenset(op.op_id for op in operations)
    by_id = {op.op_id: op for op in operations}
    seen: set[tuple[frozenset, Hashable]] = set()
    explored = 0

    def candidates(remaining: frozenset) -> list[Operation]:
        """Ops that may be linearized first: nothing remaining finished
        before they were invoked."""
        ops = [by_id[i] for i in remaining]
        earliest_response = min(op.responded_at for op in ops)
        firsts = [op for op in ops if op.invoked_at <= earliest_response]
        # Deterministic exploration order helps memoisation hit rates.
        firsts.sort(key=lambda op: (op.invoked_at, op.op_id))
        return firsts

    # Depth-first search with an explicit stack (a history of n ops nests
    # n levels deep, far past Python's recursion limit). Each frame holds
    # a node's remaining set, its state and the iterator over its
    # not-yet-tried candidates, so the exploration order, the memo and
    # the node count match the recursive formulation exactly.
    stack: list[tuple[frozenset, Any, Iterator[Operation]]] = []

    def enter(remaining: frozenset, state: Any) -> bool:
        """Visit a node: True iff it completes a linearization."""
        nonlocal explored
        if not remaining:
            return True
        key = (remaining, spec.fingerprint(state))
        if key in seen:
            return False
        seen.add(key)
        explored += 1
        if explored > max_nodes:
            raise _BudgetExceeded
        stack.append((remaining, state, iter(candidates(remaining))))
        return False

    enter(remaining_all, spec.initial_state())
    while stack:
        remaining, state, pending = stack[-1]
        depth = len(stack)
        for op in pending:
            legal, new_state = spec.apply(state, op)
            if legal and enter(remaining - {op.op_id}, new_state):
                return True
            if len(stack) > depth:
                break       # descend into the child just entered
        else:
            stack.pop()     # every candidate refuted
    return False


def check_linearizable(history: History, spec: SequentialSpec,
                       max_nodes: int = 2_000_000) -> bool:
    """True iff the history has a legal linearization.

    Raises ``RuntimeError`` if the search exceeds ``max_nodes`` explored
    states — a guard against pathological histories in CI, not a verdict.
    """
    try:
        return _search_linearization(history, spec, max_nodes)
    except _BudgetExceeded:
        raise RuntimeError("linearizability search exceeded node budget")


def check_linearizable_bounded(history: History, spec: SequentialSpec,
                               max_nodes: int = 200_000) -> str:
    """Budgeted variant for long fuzz histories: never hangs, never raises.

    Returns :data:`LINEARIZABLE`, :data:`VIOLATION`, or — when the memoised
    search would exceed ``max_nodes`` explored states — :data:`INCONCLUSIVE`.
    An exhausted search (every interleaving refuted) is a definite
    violation; only a truncated one is inconclusive. Tier-1-sized histories
    (tens of operations) complete well inside the default budget, so their
    verdicts remain exact.
    """
    try:
        found = _search_linearization(history, spec, max_nodes)
    except _BudgetExceeded:
        return INCONCLUSIVE
    return LINEARIZABLE if found else VIOLATION


class KvSequentialSpec(SequentialSpec):
    """Sequential model of :class:`~repro.smr.KeyValueStateMachine`.

    Also models ``create``/``delete`` commands (results ``"created"`` /
    ``"deleted"`` / error strings), so DS-SMR histories with dynamic
    variables can be checked. Operation results use the reply values the
    servers send.
    """

    def __init__(self, initial: Optional[dict] = None):
        self._initial = dict(initial or {})

    def initial_state(self) -> dict:
        return dict(self._initial)

    def fingerprint(self, state: dict) -> Hashable:
        return tuple(sorted((k, repr(v)) for k, v in state.items()))

    def apply(self, state: dict, operation: Operation) -> tuple[bool, Any]:
        op, args, result = operation.op, operation.args, operation.result
        if op == "get":
            key = args["key"]
            if key not in state:
                return _expect_error(result), state
            return result == state[key], state
        if op == "put":
            key = args["key"]
            if key not in state:
                return _expect_error(result), state
            if result != "ok":
                return False, state
            new = dict(state)
            new[key] = args["value"]
            return True, new
        if op == "incr":
            key = args["key"]
            if key not in state:
                return _expect_error(result), state
            expected = (state[key] or 0) + 1
            if result != expected:
                return False, state
            new = dict(state)
            new[key] = expected
            return True, new
        if op == "swap":
            a, b = args["a"], args["b"]
            if a not in state or b not in state:
                return _expect_error(result), state
            if result != "ok":
                return False, state
            new = dict(state)
            new[a], new[b] = state[b], state[a]
            return True, new
        if op == "sum":
            keys = args["keys"]
            if any(k not in state for k in keys):
                return _expect_error(result), state
            return result == sum(state[k] or 0 for k in keys), state
        if op == "create":
            key = args["key"]
            if key in state:
                return _expect_error(result), state
            if result != "created":
                return False, state
            new = dict(state)
            new[key] = args.get("value")
            return True, new
        if op == "delete":
            key = args["key"]
            if key not in state:
                return _expect_error(result), state
            if result != "deleted":
                return False, state
            new = dict(state)
            del new[key]
            return True, new
        raise ValueError(f"spec cannot model operation {op!r}")


def _expect_error(result: Any) -> bool:
    """An op on a missing variable must have returned an error (NOK)."""
    return isinstance(result, str) and result not in ("ok", "created",
                                                      "deleted")
