"""Span tracing from outside the program: class-level timing wrappers.

:class:`SpanTracer` patches the public entry points of each ``repro``
layer on their classes (before a cluster is built) and records one span
per call: name, start, end, parent span and command id where the call
carries a command. Spans live in flat arrays in memory; :meth:`write`
dumps them at the end of a run. A span's self time is its duration minus
the time its wrapped children cover; the layer of a span is the
``repro`` subpackage that defines the wrapped function.

Handlers registered through ``ProtocolNode.on``/``on_default`` and
callbacks passed to ``GroupLog.on_decide``, ``AtomicMulticast.on_deliver``
and ``ReliableMulticast.on_deliver`` are wrapped at registration time and
attributed to the layer of the module that defines them.

Client proxies run as generators resumed by the kernel (``run_command``);
their own Python work is not wrapped and lands in ``sim`` self time,
together with the kernel loop between ``Environment.step`` calls.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

from repro.apps.chirper import ChirperStateMachine
from repro.harness.cluster import Cluster
from repro.net import Network
from repro.obs.flight import FlightRecorder
from repro.obs.profile import VirtualProfiler
from repro.obs.tracing import CommandTracer
from repro.ordering.atomic_multicast import AtomicMulticast
from repro.ordering.log import GroupLog, SequencerLog
from repro.ordering.node import ProtocolNode
from repro.ordering.paxos import PaxosLog
from repro.ordering.reliable_multicast import ReliableMulticast
from repro.reconfig.checkpoint import PartitionCheckpointer
from repro.sim import Environment
from repro.smr.parallel import ParallelExecutionModel
from repro.store.checkpoints import DurableCheckpointStore
from repro.store.wal import WriteAheadLog

#: (class, method, layer, index of the Command argument or None)
ENTRY_POINTS = (
    (Environment, "step", "sim", None),
    (Network, "send", "net", None),
    (Network, "send_all", "net", None),
    # The network trace hook runs on every send and delivery, tracer
    # attached or not: it is observability code living in the transport.
    (Network, "_trace", "obs", None),
    (FlightRecorder, "record", "obs", None),
    (SequencerLog, "submit", "ordering", None),
    (PaxosLog, "submit", "ordering", None),
    (AtomicMulticast, "multicast", "ordering", None),
    (ChirperStateMachine, "apply", "apps", 0),
    (WriteAheadLog, "append", "store", None),
    (WriteAheadLog, "sync_barrier", "store", None),
    (DurableCheckpointStore, "save", "store", None),
    (PartitionCheckpointer, "capture", "reconfig", None),
    (ParallelExecutionModel, "dispatch", "smr", 0),
)

#: Hooks of the virtual profiler and command tracer the traced run arms
#: for the virtual-time split: their cost is instrumentation, kept out of
#: every program layer and reported on its own.
INSTRUMENT_HOOKS = (
    (VirtualProfiler, ("stage", "command", "account", "net", "mark")),
    (CommandTracer, ("begin_trace", "end_trace", "span", "mark_send",
                     "sent_at")),
)
INSTRUMENT_LAYER = "instrument"

#: Registration methods whose callback argument gets wrapped.
REGISTRARS = (
    (ProtocolNode, "on", 1),
    (ProtocolNode, "on_default", 0),
    (GroupLog, "on_decide", 0),
    (AtomicMulticast, "on_deliver", 0),
    (ReliableMulticast, "on_deliver", 0),
)


def layer_of(fn) -> str:
    """The ``repro`` subpackage that defines callable ``fn``."""
    module = getattr(fn, "__module__", None)
    if module is None:
        module = getattr(getattr(fn, "func", None), "__module__", "") or ""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class SpanTracer:
    """Records spans around the layers' entry points while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cmd_ids: dict[str, int] = {}
        self._saved: list[tuple] = []
        self.profiler = None
        self.clear()

    def clear(self) -> None:
        self.name = array("q")
        self.parent = array("q")
        self.cmd = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, method, layer, cmd_arg in ENTRY_POINTS:
            self._patch(cls, method,
                        self.wrap(getattr(cls, method),
                                  f"{layer}:{cls.__name__}.{method}",
                                  layer, cmd_arg))
        for cls, methods in INSTRUMENT_HOOKS:
            for method in methods:
                self._patch(cls, method, self.wrap(
                    getattr(cls, method),
                    f"{INSTRUMENT_LAYER}:{cls.__name__}.{method}",
                    INSTRUMENT_LAYER))
        for cls, method, position in REGISTRARS:
            self._patch(cls, method,
                        self._registrar(getattr(cls, method), position))
        self._patch(Cluster, "__init__",
                    self._instrumented_init(Cluster.__init__))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved = []

    def _patch(self, cls, method, replacement) -> None:
        self._saved.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def _registrar(self, register, position):
        tracer = self

        def registrar(owner, *args):
            args = list(args)
            fn = args[position]
            qualname = getattr(fn, "__qualname__", type(fn).__name__)
            layer = layer_of(fn)
            args[position] = tracer.wrap(fn, f"{layer}:{qualname}", layer)
            return register(owner, *args)
        return registrar

    def _instrumented_init(self, init):
        spans = self

        def instrumented_init(cluster, config, tracer=None, profiler=None):
            # The command tracer feeds the profiler's ordering stage.
            if tracer is None:
                tracer = CommandTracer()
            if profiler is None:
                profiler = VirtualProfiler(config.scheme)
            spans.profiler = profiler
            init(cluster, config, tracer=tracer, profiler=profiler)
        return instrumented_init

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    # -- the wrapper ---------------------------------------------------

    def wrap(self, fn, name: str, layer: str, cmd_arg=None):
        nid = self._name_id(name, layer)
        clock = time.perf_counter
        tracer = self
        cmd_ids = self.cmd_ids

        def spanned(*args, **kwargs):
            start = tracer.start
            idx = len(start)
            stack = tracer._stack
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name.append(nid)
            if cmd_arg is None:
                tracer.cmd.append(-1)
            else:
                cid = args[cmd_arg + 1].cid
                tracer.cmd.append(cmd_ids.setdefault(cid, len(cmd_ids)))
            start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                start[idx] = began
                tracer.end[idx] = ended
        spanned.__wrapped__ = fn
        return spanned

    # -- analysis --------------------------------------------------------

    def summary(self, upto: int) -> dict:
        """Self time per layer and call count per span name, over the
        first ``upto`` spans (those of the timed window)."""
        name = np.frombuffer(self.name, dtype=np.int64)[:upto]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:upto]
        duration = (np.frombuffer(self.end, dtype=np.float64)[:upto]
                    - np.frombuffer(self.start, dtype=np.float64)[:upto])
        child = np.bincount(parent[parent >= 0],
                            weights=duration[parent >= 0],
                            minlength=upto)[:upto]
        self_time = duration - child
        per_name = np.bincount(name, weights=self_time,
                               minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        layers: dict[str, float] = {}
        for nid, seconds in enumerate(per_name):
            layer = self.layers[nid]
            layers[layer] = layers.get(layer, 0.0) + float(seconds)
        return {
            "self_s": layers,
            "calls": {self.names[nid]: int(count)
                      for nid, count in enumerate(calls) if count},
            "root_s": float(duration[parent < 0].sum()),
            "spans": int(upto),
        }

    def write(self, path, upto: int) -> None:
        """Dump the first ``upto`` spans: one ``.npz`` of columns plus the
        span-name table (index = ``name`` column value)."""
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int64)[:upto],
                 parent=np.frombuffer(self.parent, dtype=np.int64)[:upto],
                 cmd=np.frombuffer(self.cmd, dtype=np.int64)[:upto],
                 start=np.frombuffer(self.start, dtype=np.float64)[:upto],
                 end=np.frombuffer(self.end, dtype=np.float64)[:upto],
                 names=np.array(json.dumps(self.names)))
