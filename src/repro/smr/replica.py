"""Classic SMR replica: full state, totally ordered execution.

Commands arrive through atomic broadcast (single-group atomic multicast) and
are executed sequentially by an executor process that charges the execution
cost model. Every replica sends the reply; clients deduplicate. This is the
non-scalable baseline the paper starts from: adding replicas never increases
throughput because each replica executes every command.
"""

from __future__ import annotations

from typing import Optional

from repro.net import Network
from repro.ordering import AmcastDelivery, GroupDirectory, SequencerLog
from repro.sim import Environment
from repro.smr.command import Command, Reply, ReplyStatus
from repro.smr.execution import ExecutionModel
from repro.smr.pipeline import (REPLY_KIND, ExecutorPipeline, attempt_of,
                                delivery_command)
from repro.smr.state_machine import (ExecutionView, StateMachine,
                                     VariableStore)

__all__ = ["REPLY_KIND", "SmrReplica", "delivery_command"]


class SmrReplica(ExecutorPipeline):
    """One replica of a classically replicated state machine."""

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, group: str, name: str,
                 state_machine: StateMachine,
                 execution: Optional[ExecutionModel] = None,
                 log_factory=SequencerLog,
                 start_gate=None,
                 dedup: bool = True,
                 tracer=None):
        self.state_machine = state_machine
        self.execution = execution or ExecutionModel()
        self.store = VariableStore()
        self.executed: list[str] = []  # command ids, in execution order
        self._executed_set: set[str] = set()
        super().__init__(env, network, directory, group, name,
                         log_factory=log_factory, dedup=dedup,
                         start_gate=start_gate, tracer=tracer)

    def apply(self, delivery: AmcastDelivery):
        command = delivery_command(delivery.payload)
        attempt = attempt_of(delivery.payload)
        if self._resend_cached(command, attempt):
            return
        yield from self._execute(command, self.execution.cost(command))
        self._finish(command, self._apply_local(command), attempt)

    def _resend_cached(self, command: Command, attempt: int) -> bool:
        # Dedup keys on the execution history, not the reply cache: a
        # snapshot-recovered replica knows what it executed but holds no
        # replies for it. Re-executing would double-apply the writes;
        # resend the cached reply instead, if there is one (the resend's
        # reply may have been the message that was lost).
        if not (self.replies.enabled and command.cid in self._executed_set):
            return False
        super()._resend_cached(command, attempt)
        return True

    def _record_executed(self, cid: str) -> None:
        self.executed.append(cid)
        self._executed_set.add(cid)

    def _apply_local(self, command: Command) -> Reply:
        try:
            if command.ctype.value == "create":
                key = command.variables[0]
                self.store.create(
                    key, self.state_machine.initial_value(key, command.args))
                value = "created"
            elif command.ctype.value == "delete":
                self.store.delete(command.variables[0])
                value = "deleted"
            else:
                view = ExecutionView(self.store)
                value = self.state_machine.apply(command, view)
            status = ReplyStatus.OK
        except KeyError as error:
            status, value = ReplyStatus.NOK, str(error)
        return self._make_reply(command, status, value)
