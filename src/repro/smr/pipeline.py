"""The executor pipeline every replicated server runs.

Every server in the paper runs the same loop — take the next ordered
delivery, execute it sequentially, reply — whether it is a classic SMR
replica, an S-SMR partition (Algorithm 1), a DS-SMR partition proxy
(Algorithm 3) or an oracle replica (Algorithm 4). :class:`ExecutorPipeline`
is that loop, with every cross-cutting feature as one stage:

1. **intake** (:meth:`~ExecutorPipeline._enqueue`) — the *order* span,
   the enqueue stamp and the peak executor-queue depth;
2. **start gate** — a recovering replica's executor waits until its
   state snapshot is installed;
3. **durability barrier** — with a write-ahead log attached
   (:mod:`repro.store`), the ordered entry must be fsynced before any
   effect or reply of it can be observed;
4. **sojourn / queue accounting** — the CoDel sojourn sample
   (:mod:`repro.qos`), the *queue* span and profiler stage;
5. **dispatch** — with a worker pool attached (:mod:`repro.smr.parallel`)
   eligible commands go to the pool (a resend of a command still in
   flight re-sends its reply when the original lands); everything else
   drains the pool and runs on the sequential path;
6. **apply** — the scheme's own logic, built from the shared reply-cache
   dedup (:meth:`~ExecutorPipeline._resend_cached`), execute
   (:meth:`~ExecutorPipeline._execute`: cost, span, profiler stage) and
   reply (:meth:`~ExecutorPipeline._finish`) helpers.

A subclass supplies only its scheme logic: :meth:`apply` (a generator
over one delivery), :meth:`_apply_local` for pool-dispatched commands and
:meth:`_parallel_eligible`. Features are attached from outside — the
harness composes them in one factory (``Cluster._make_server``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.tracing import NULL_TRACER, trace_id_of
from repro.ordering import (AmcastDelivery, AtomicMulticast, ProtocolNode,
                            SequencerLog)
from repro.resilience import ReplyCache
from repro.sim import Channel, Interrupted
from repro.smr.command import Command, CommandType, Reply, ReplyStatus

REPLY_KIND = "reply"


def delivery_command(payload) -> Optional[Command]:
    """The command inside an amcast delivery payload, if any.

    Payloads are resilient-client envelopes (dicts), legacy raw commands,
    or oracle control messages (hints/activations) with no command.
    """
    if isinstance(payload, Command):
        return payload
    if isinstance(payload, dict):
        command = payload.get("command")
        if isinstance(command, Command):
            return command
    return None


def attempt_of(payload) -> int:
    """The client attempt number an envelope carries (1 for raw commands)."""
    return payload.get("attempt", 1) if isinstance(payload, dict) else 1


def respawn(server):
    """A gated replacement for crashed ``server`` under the same name.

    Same class and constructor settings, no attached features. For
    servers used outside a deployment; a ``Cluster`` builds its
    replacements with its factory, which composes the configured
    features on every path.
    """
    network = server.node.network
    network.recover(server.node.name)
    options = {} if server.amcast.speaker_only else {"speaker_only": False}
    return type(server)(
        server.env, network, server.directory, server.group,
        server.node.name, server.state_machine, execution=server.execution,
        log_factory=type(server.log), dedup=server.replies.enabled,
        start_gate=server.env.event(), tracer=server.tracer, **options)


class ExecutorPipeline:
    """Ordered-delivery intake plus the executor loop (see module doc)."""

    #: Delivery uids a durable cold start marked as replayed history;
    #: they skip the durability barrier (the oracle arms these).
    _replay_uids: frozenset = frozenset()

    def __init__(self, env, network, directory, group: str, name: str,
                 log_factory=SequencerLog, speaker_only: bool = True,
                 dedup: bool = True, start_gate=None, tracer=None):
        self.env = env
        self.group = group
        self.directory = directory
        self.node = ProtocolNode(env, network, name)
        self.log = log_factory(self.node, directory, group)
        self.amcast = AtomicMulticast(self.node, directory, self.log,
                                      speaker_only=speaker_only)
        # dedup=False (test-only) disables exactly-once retry filtering so
        # the chaos sentinel can prove the checkers catch double execution.
        self.replies = ReplyCache(enabled=dedup)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.queue_peak = 0
        # Features, attached by the harness; None keeps the intake and
        # executor hot paths free of them. qos: overload control
        # (repro.qos); wal: write-ahead log (repro.store); parallel:
        # conflict-aware worker pool (repro.smr.parallel).
        self.qos = None
        self.wal = None
        self.parallel = None
        self._enqueue_times: dict[str, float] = {}
        self._deliveries = Channel(env, name=f"{name}/deliveries")
        # The delivery the executor is currently inside (checkpoint
        # consistency: a capture must count it as not-yet-executed work).
        self._current_delivery = None
        # A recovering replica's executor must not touch the store until
        # its state is installed; the gate event holds it back.
        self._start_gate = start_gate
        self.amcast.on_deliver(self._enqueue)
        self._executor = env.process(self._execute_loop(),
                                     name=f"{name}/executor")

    # -- lifecycle ----------------------------------------------------------

    def crash(self) -> None:
        self.node.crash()
        self._executor.interrupt("crash")

    def load_state(self, contents: dict) -> None:
        """Install this replica's share of the initial service state."""
        for key, value in contents.items():
            self.store.write(key, value)

    # -- intake ---------------------------------------------------------------

    def _enqueue(self, delivery: AmcastDelivery) -> None:
        """Queue an ordered delivery for the executor (tracing tap).

        Emits the *order* server span (client submit -> total-order
        delivery) and stamps the enqueue time so the executor can account
        the time spent behind earlier deliveries. Also tracks the peak
        executor-queue depth; a direct handoff to a waiting executor
        counts as depth 1.
        """
        if self.tracer.enabled:
            command = delivery_command(delivery.payload)
            if command is not None:
                sent = self.tracer.sent_at(command.cid)
                if sent is not None:
                    self.tracer.span(trace_id_of(command.cid), "order",
                                     self.node.name, sent, self.env.now,
                                     uid=delivery.uid)
                    if self.node.profiler.enabled:
                        self.node.profiler.account(
                            self.node.name, "order", self.env.now - sent)
        if (self.tracer.enabled or self.node.profiler.enabled
                or self.qos is not None):
            self._enqueue_times[delivery.uid] = self.env.now
        self._deliveries.put(delivery)
        depth = len(self._deliveries) or 1
        if depth > self.queue_peak:
            self.queue_peak = depth

    # -- overload control (repro.qos) ----------------------------------------

    def queue_depth(self) -> int:
        """Current executor-queue depth (the adaptive batching signal)."""
        return len(self._deliveries)

    def attach_qos(self, admission, batcher=None, classify=None) -> None:
        """Attach overload control to this replica.

        Admission decisions happen inside the sequencer log (meaningful
        on the group speaker only — the one process that sees client
        entries before they are ordered, so the admitted sequence stays
        identical on every member); the executor loop feeds each
        dequeued delivery's queue sojourn to the CoDel controller.
        """
        self.qos = admission
        if hasattr(self.log, "attach_qos"):
            self.log.attach_qos(admission=admission, batcher=batcher,
                                on_shed=self._shed_reply, classify=classify)

    def _shed_reply(self, entry: dict, reason: str) -> None:
        """Backpressure for a shed entry: explicit OVERLOAD, not silence."""
        payload = entry.get("payload")
        command = delivery_command(payload)
        if command is None or not command.client:
            return
        self.node.send(command.client, REPLY_KIND, self._make_reply(
            command, ReplyStatus.OVERLOAD, reason,
            attempt=attempt_of(payload)), size=96)
        self.node.flight("qos", f"shed {command.cid} ({reason})")

    # -- the executor loop -------------------------------------------------

    def _execute_loop(self):
        try:
            if self._start_gate is not None:
                yield self._start_gate
            while True:
                delivery: AmcastDelivery = yield self._deliveries.get()
                self._current_delivery = delivery
                if (self.wal is not None
                        and delivery.uid not in self._replay_uids):
                    # Durability barrier: the ordered entry must be
                    # fsynced before its effects (and reply) can be
                    # observed by anyone. _current_delivery is already
                    # set, so a checkpoint captured during the wait
                    # still counts this delivery as queued work.
                    yield self.wal.sync_barrier()
                if (self.tracer.enabled or self.node.profiler.enabled
                        or self.qos is not None):
                    self._account_queue(delivery)
                pool = self.parallel
                if pool is not None:
                    command = self._parallel_command(delivery.payload)
                    if command is not None:
                        # Once dispatched, the pool tracks the delivery
                        # for checkpoint consistency; the executor moves
                        # straight on to the next entry.
                        self._dispatch_parallel(command, delivery)
                        self._current_delivery = None
                        continue
                    # Everything else serializes against the whole pool:
                    # drain, then run the sequential path.
                    yield from pool.drain()
                    serial = delivery_command(delivery.payload)
                    if serial is not None:
                        pool.scheduler.note_serial(
                            self.execution.cost(serial))
                yield from self.apply(delivery)
                self._current_delivery = None
        except Interrupted:
            return

    def _account_queue(self, delivery: AmcastDelivery) -> None:
        """Feed the delivery's queue sojourn to CoDel and the *queue* stage."""
        now = self.env.now
        enqueued = self._enqueue_times.pop(delivery.uid, None)
        if enqueued is None:
            return
        if self.qos is not None:
            self.qos.note_sojourn(now, now - enqueued)
        command = delivery_command(delivery.payload)
        if command is not None and now > enqueued:
            self._stage(command, "queue", enqueued)

    def apply(self, delivery: AmcastDelivery):
        """Generator: the scheme's sequential handling of one delivery."""
        raise NotImplementedError

    # -- parallel execution (repro.smr.parallel) ------------------------------

    def _parallel_command(self, payload) -> Optional[Command]:
        """The command, iff this delivery may run on the worker pool.

        Only access commands qualify (creates/deletes change the store's
        key set, control entries carry no command), and only those the
        scheme deems eligible.
        """
        command = delivery_command(payload)
        if (command is None or command.ctype is not CommandType.ACCESS
                or not self._parallel_eligible(payload)):
            return None
        return command

    def _parallel_eligible(self, payload) -> bool:
        """Scheme rule for pool eligibility of an access command."""
        return True

    def _dispatch_parallel(self, command: Command,
                           delivery: AmcastDelivery) -> None:
        """Dispatch one access command onto the worker pool.

        The slot is fully determined at dispatch (costs are
        deterministic), so apply + reply run as a callback at the finish
        time and the executor immediately dequeues the next entry — this
        is what lets non-conflicting commands overlap. ``executed`` is
        appended now, in log order, keeping the cross-replica
        execution-order invariant independent of finish interleavings; a
        checkpoint captured before the finish filters the cid back out
        (see PartitionCheckpointer.capture).
        """
        env = self.env
        pool = self.parallel
        attempt = attempt_of(delivery.payload)
        if self.replies.enabled:
            slot = pool.inflight_slot(command.cid)
            if slot is not None:
                # A client resend raced the original, which is still on a
                # core: its reply does not exist yet, so re-send it when
                # the original lands.
                def resend():
                    if not self.node.crashed:
                        self._resend_cached(command, attempt)
                env.schedule_callback(slot.finish - env.now, resend)
                return
        if self._resend_cached(command, attempt):
            return
        slot = pool.dispatch(command, self.execution.cost(command),
                             delivery=delivery)
        self._record_executed(command.cid)
        if self.node.profiler.enabled and slot.stall > 0:
            self.node.profiler.account(self.node.name, "exec.queue",
                                       slot.stall)

        def complete():
            if self.node.crashed:
                return
            reply = self._apply_local(command)
            reply.attempt = attempt
            if self.tracer.enabled:
                self.tracer.span(trace_id_of(command.cid), "execute",
                                 self.node.name, slot.start, env.now,
                                 core=slot.core)
            if self.node.profiler.enabled:
                self.node.profiler.account(self.node.name,
                                           f"exec.run.c{slot.core}",
                                           slot.cost)
            self.replies.store(command.cid, reply)
            pool.complete(command.cid)
            self._send_reply(command, reply)

        env.schedule_callback(slot.finish - env.now, complete)

    def _apply_local(self, command: Command) -> Reply:
        """Apply an access to the local store, without charging cost."""
        raise NotImplementedError

    # -- shared stages of apply ---------------------------------------------

    def _resend_cached(self, command: Command, attempt: int) -> bool:
        """Reply-cache dedup: resend the cached reply of an executed command.

        The reply is re-tagged with the current attempt so the client's
        stale-attempt filter accepts it. Returns True iff the command
        already executed here (and must not execute again).
        """
        cached = self.replies.lookup(command.cid, attempt)
        if cached is None:
            return False
        self._send_reply(command, cached)
        return True

    def _execute(self, command: Command, cost: float, account: bool = True,
                 **fields):
        """Generator: charge ``cost`` of simulated CPU to ``command``.

        Emits the *execute* span (with ``fields``) and, unless
        ``account`` is off, the profiler's *execute* stage.
        """
        start = self.env.now
        yield self.env.timeout(cost)
        self._stage(command, "execute", start, account=account, **fields)

    def _stage(self, command: Command, stage: str, start: float,
               account: bool = True, **fields) -> None:
        """Close one server-side stage of ``command`` begun at ``start``:
        its span, and (with ``account``) its profiler cost."""
        if self.tracer.enabled:
            self.tracer.span(trace_id_of(command.cid), stage,
                             self.node.name, start, self.env.now, **fields)
        if account and self.node.profiler.enabled:
            self.node.profiler.account(self.node.name, stage,
                                       self.env.now - start)

    def _finish(self, command: Command, reply: Reply, attempt: int) -> None:
        """Record an executed command: cache, history, reply."""
        reply.attempt = attempt
        self.replies.store(command.cid, reply)
        self._record_executed(command.cid)
        self._send_reply(command, reply)

    def _record_executed(self, cid: str) -> None:
        self.executed.append(cid)

    def _make_reply(self, command: Command, status: ReplyStatus, value,
                    **fields) -> Reply:
        return Reply(cid=command.cid, status=status, value=value,
                     sender=self.node.name, partition=self.group, **fields)

    def _send_reply(self, command: Command, reply: Reply) -> None:
        if command.client:
            self.node.send(command.client, REPLY_KIND, reply, size=128)
