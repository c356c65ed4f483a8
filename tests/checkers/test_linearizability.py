"""Tests for the Wing–Gong linearizability checker itself."""

import pytest

from repro.checkers import (INCONCLUSIVE, LINEARIZABLE, VIOLATION, History,
                            KvSequentialSpec, check_linearizable,
                            check_linearizable_bounded)


def history_of(*ops):
    """ops: (client, op, args, result, invoke, respond)."""
    history = History()
    for client, op, args, result, invoked, responded in ops:
        history.record(client, op, args, result, invoked, responded)
    return history


class TestChecker:
    def test_empty_history_linearizable(self):
        assert check_linearizable(History(), KvSequentialSpec())

    def test_sequential_legal_history(self):
        history = history_of(
            ("a", "put", {"key": "x", "value": 1}, "ok", 0, 1),
            ("a", "get", {"key": "x"}, 1, 2, 3),
        )
        spec = KvSequentialSpec({"x": 0})
        assert check_linearizable(history, spec)

    def test_stale_read_after_write_rejected(self):
        history = history_of(
            ("a", "put", {"key": "x", "value": 1}, "ok", 0, 1),
            ("a", "get", {"key": "x"}, 0, 2, 3),   # stale!
        )
        spec = KvSequentialSpec({"x": 0})
        assert not check_linearizable(history, spec)

    def test_concurrent_ops_may_reorder(self):
        # get overlaps the put: both 0 and 1 are legal results.
        for read_value in (0, 1):
            history = history_of(
                ("a", "put", {"key": "x", "value": 1}, "ok", 0, 10),
                ("b", "get", {"key": "x"}, read_value, 0, 10),
            )
            assert check_linearizable(history, KvSequentialSpec({"x": 0}))

    def test_real_time_order_enforced(self):
        # The get strictly follows the put, so it must see 1.
        history = history_of(
            ("a", "put", {"key": "x", "value": 1}, "ok", 0, 1),
            ("b", "get", {"key": "x"}, 0, 5, 6),
        )
        assert not check_linearizable(history, KvSequentialSpec({"x": 0}))

    def test_incr_chain(self):
        history = history_of(
            ("a", "incr", {"key": "n"}, 1, 0, 1),
            ("b", "incr", {"key": "n"}, 2, 2, 3),
            ("a", "get", {"key": "n"}, 2, 4, 5),
        )
        assert check_linearizable(history, KvSequentialSpec({"n": 0}))

    def test_duplicate_incr_value_rejected(self):
        history = history_of(
            ("a", "incr", {"key": "n"}, 1, 0, 1),
            ("b", "incr", {"key": "n"}, 1, 2, 3),   # lost update!
        )
        assert not check_linearizable(history, KvSequentialSpec({"n": 0}))

    def test_swap_semantics(self):
        history = history_of(
            ("a", "swap", {"a": "x", "b": "y"}, "ok", 0, 1),
            ("a", "get", {"key": "x"}, 2, 2, 3),
            ("a", "get", {"key": "y"}, 1, 4, 5),
        )
        assert check_linearizable(history,
                                  KvSequentialSpec({"x": 1, "y": 2}))

    def test_create_delete_lifecycle(self):
        history = history_of(
            ("a", "create", {"key": "k", "value": 5}, "created", 0, 1),
            ("a", "get", {"key": "k"}, 5, 2, 3),
            ("a", "delete", {"key": "k"}, "deleted", 4, 5),
            ("a", "get", {"key": "k"}, "unknown variables: ['k']", 6, 7),
        )
        assert check_linearizable(history, KvSequentialSpec())

    def test_create_of_existing_must_fail(self):
        history = history_of(
            ("a", "create", {"key": "k"}, "created", 0, 1),
            ("b", "create", {"key": "k"}, "created", 2, 3),
        )
        assert not check_linearizable(history, KvSequentialSpec())

    def test_concurrent_creates_one_winner(self):
        history = history_of(
            ("a", "create", {"key": "k"}, "created", 0, 10),
            ("b", "create", {"key": "k"}, "variable already exists", 0, 10),
        )
        assert check_linearizable(history, KvSequentialSpec())

    def test_unknown_op_raises(self):
        history = history_of(("a", "fly", {}, None, 0, 1))
        with pytest.raises(ValueError):
            check_linearizable(history, KvSequentialSpec())

    def test_node_budget_guard(self):
        history = history_of(*[
            ("c", "get", {"key": "x"}, 0, 0, 100 + i) for i in range(12)])
        with pytest.raises(RuntimeError):
            check_linearizable(history, KvSequentialSpec({"x": 0}),
                               max_nodes=3)


class TestBoundedChecker:
    """The fuzzer's variant: three-valued verdict, never raises, never
    hangs — a truncated search is INCONCLUSIVE, not a violation."""

    def test_linearizable_verdict(self):
        history = history_of(
            ("a", "put", {"key": "x", "value": 1}, "ok", 0, 1),
            ("a", "get", {"key": "x"}, 1, 2, 3),
        )
        verdict = check_linearizable_bounded(history,
                                             KvSequentialSpec({"x": 0}))
        assert verdict == LINEARIZABLE

    def test_violation_verdict(self):
        history = history_of(
            ("a", "incr", {"key": "n"}, 1, 0, 1),
            ("b", "incr", {"key": "n"}, 1, 2, 3),   # lost update
        )
        verdict = check_linearizable_bounded(history,
                                             KvSequentialSpec({"n": 0}))
        assert verdict == VIOLATION

    def test_empty_history(self):
        assert check_linearizable_bounded(
            History(), KvSequentialSpec()) == LINEARIZABLE

    def test_budget_exhaustion_is_inconclusive_not_an_exception(self):
        # 12 fully concurrent reads: every subset is a distinct frontier,
        # far beyond a 3-node budget. The strict checker raises here; the
        # bounded one must return INCONCLUSIVE instead of hanging/raising.
        history = history_of(*[
            ("c", "get", {"key": "x"}, 0, 0, 100 + i) for i in range(12)])
        verdict = check_linearizable_bounded(
            history, KvSequentialSpec({"x": 0}), max_nodes=3)
        assert verdict == INCONCLUSIVE

    def test_verdict_exact_once_budget_suffices(self):
        # The same concurrent history with a real budget resolves exactly.
        history = history_of(*[
            ("c", "get", {"key": "x"}, 0, 0, 100 + i) for i in range(8)])
        verdict = check_linearizable_bounded(
            history, KvSequentialSpec({"x": 0}))
        assert verdict == LINEARIZABLE

    def test_violation_beats_truncation(self):
        # An exhausted search (all interleavings refuted) is a definite
        # violation even under a small budget, as long as the search
        # completes within it.
        history = history_of(
            ("a", "put", {"key": "x", "value": 1}, "ok", 0, 1),
            ("a", "get", {"key": "x"}, 0, 2, 3),   # stale
        )
        verdict = check_linearizable_bounded(
            history, KvSequentialSpec({"x": 0}), max_nodes=50)
        assert verdict == VIOLATION

    def test_long_sequential_history_does_not_overflow_the_stack(self):
        # 1,200 back-to-back increments nest 1,200 levels deep — past
        # Python's recursion limit — under the default budget.
        history = history_of(*[
            ("a", "incr", {"key": "n"}, i + 1, 2 * i, 2 * i + 1)
            for i in range(1_200)])
        verdict = check_linearizable_bounded(
            history, KvSequentialSpec({"n": 0}))
        assert verdict == LINEARIZABLE

    def test_long_history_ending_in_a_stale_read_is_a_violation(self):
        # 1,999 increments then a read of an old value: the search must
        # walk 2,000 levels down and back up to refute every order.
        ops = [("a", "incr", {"key": "n"}, i + 1, 2 * i, 2 * i + 1)
               for i in range(1_999)]
        ops.append(("a", "get", {"key": "n"}, 7, 4_000, 4_001))
        verdict = check_linearizable_bounded(
            history_of(*ops), KvSequentialSpec({"n": 0}))
        assert verdict == VIOLATION


class TestHistory:
    def test_response_before_invoke_rejected(self):
        history = History()
        with pytest.raises(ValueError):
            history.record("a", "get", {}, 1, invoked_at=5, responded_at=4)
