"""DS-SMR partition server proxy (Algorithm 3 of the paper).

Extends the S-SMR server with the dynamic-partitioning behaviours:

* **access** — executes only if *all* the command's variables are stored
  locally; otherwise replies ``retry`` (the variables moved away since the
  client consulted). Commands arriving with ``mode="fallback"`` take the
  S-SMR multi-partition path instead, which is how termination is
  guaranteed after repeated retries.
* **move** — a source partition ships its share of the moved variables to
  the destination partition via reliable multicast and forgets them; the
  destination waits for one transfer message per source, installs the
  values, and acknowledges to the client that triggered the move.
* **create / delete** — executed in coordination with the oracle: partition
  and oracle exchange signals so creates and deletes serialize correctly
  against each other (Task 2/3 of the oracle algorithm).
"""

from __future__ import annotations

from repro.ordering import AmcastDelivery
from repro.sim import Counter
from repro.smr.command import Command, CommandType, ReplyStatus
from repro.smr.pipeline import REPLY_KIND, attempt_of
from repro.ssmr.server import SsmrServer
from repro.core.oracle import ORACLE_GROUP


class DssmrServer(SsmrServer):
    """One replica of one DS-SMR partition."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retries_sent = Counter(f"{self.node.name}/retries")
        self.moves_in = Counter(f"{self.node.name}/moves-in")
        self.moves_out = Counter(f"{self.node.name}/moves-out")

    def apply(self, delivery: AmcastDelivery):
        envelope = delivery.payload
        command = envelope.get("command")
        if command is not None:
            if command.ctype is CommandType.MOVE:
                yield from self._exec_move(command)
                return
            if (command.ctype is CommandType.ACCESS
                    and envelope.get("mode") != "fallback"):
                yield from self._exec_single_partition_access(
                    command, envelope.get("attempt", 1))
                return
        # Reconfig fences, create/delete and fallback accesses reuse the
        # S-SMR machinery, with the oracle joining the signal exchange
        # for create/delete.
        yield from super().apply(delivery)

    # -- parallel execution (repro.smr.parallel) ------------------------------

    def _parallel_eligible(self, envelope) -> bool:
        """Non-fallback accesses (always single-partition) may run on the
        pool; fallback accesses take the S-SMR multi-partition machinery
        and serialize."""
        return envelope.get("mode") != "fallback"

    def _dispatch_parallel(self, command: Command, delivery) -> None:
        # The retry verdict is sound at dispatch time: moves (and
        # creates/deletes) barrier on a drained pool, so the store key-set
        # cannot change while work is in flight.
        if (self.parallel.inflight_slot(command.cid) is None
                and command.cid not in self.replies
                and self._retry_if_moved(command,
                                         attempt_of(delivery.payload))):
            return
        super()._dispatch_parallel(command, delivery)

    # -- access (single-partition fast path) ---------------------------------

    def _exec_single_partition_access(self, command: Command,
                                      attempt: int = 1):
        if self._resend_cached(command, attempt):
            return
        if self._retry_if_moved(command, attempt):
            return
        yield from self._execute(command, self.execution.cost(command))
        self._finish(command, self._apply_local(command), attempt)

    def _retry_if_moved(self, command: Command, attempt: int) -> bool:
        """Reply RETRY if variables moved away since the client consulted."""
        missing = [key for key in command.variables
                   if key not in self.store]
        if not missing:
            return False
        self.retries_sent.increment(self.env.now)
        self._send_reply(command, self._make_reply(
            command, ReplyStatus.RETRY, {"missing": missing},
            attempt=attempt))
        return True

    # -- move --------------------------------------------------------------------

    def _exec_move(self, command: Command):
        sources = set(command.args["sources"])
        dest = command.args["dest"]
        notify = command.args.get("notify")
        if self.partition in sources:
            # Ship whatever we still hold (possibly nothing, if an earlier
            # move already took these variables) and forget it.
            shipped = {}
            for key in command.variables:
                if key in self.store:
                    shipped[key] = self.store.pop(key)
            self.moves_out.increment(self.env.now, len(shipped))
            self.exchange.send([dest], command.cid, shipped)
            ship_start = self.env.now
            yield self.env.timeout(self.execution.base_ms)
            self._stage(command, "move", ship_start, role="source",
                        shipped=len(shipped))
            self.node.flight("move",
                             f"shipped {len(shipped)} var(s) to {dest}")
            return
        if self.partition == dest:
            cached = self.replies.lookup(command.cid)
            if cached is not None:
                if notify:
                    self.node.send(notify, REPLY_KIND, cached, size=128)
                return
            gather_start = self.env.now
            yield from self.exchange.wait(command.cid, sources)
            received = self.exchange.collect(command.cid)
            for key, value in received.items():
                self.store.write(key, value)
            self.moves_in.increment(self.env.now, len(received))
            yield self.env.timeout(self.execution.base_ms)
            self._stage(command, "move", gather_start, role="dest",
                        received=len(received))
            self.node.flight("move",
                             f"installed {len(received)} var(s)")
            reply = self._make_reply(command, ReplyStatus.OK,
                                     {"moved": len(received)})
            self.replies.store(command.cid, reply)
            if notify:
                self.node.send(notify, REPLY_KIND, reply, size=128)

    # -- create / delete (coordinated with the oracle) -----------------------

    def _exec_create(self, command: Command, dests: tuple):
        verdict = yield from self._oracle_verdict(command)
        return (yield from super()._exec_create(command, dests, verdict))

    def _exec_delete(self, command: Command, dests: tuple):
        verdict = yield from self._oracle_verdict(command)
        return (yield from super()._exec_delete(command, dests, verdict))

    def _oracle_verdict(self, command: Command):
        """Generator: signal exchange with the oracle (both sides send,
        then wait); the oracle's signal carries the verdict of the
        create/delete race."""
        self.exchange.send([ORACLE_GROUP], command.cid, {})
        yield from self._await_exchange(command, [ORACLE_GROUP])
        return self.exchange.collect(command.cid).get("verdict")
