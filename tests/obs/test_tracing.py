"""Unit tests for the span model (repro.obs.tracing)."""

from repro.obs import NULL_TRACER, CommandTracer, Span, trace_id_of
from repro.obs.tracing import spans_by_trace


class TestTraceIdOf:
    def test_root_id_is_itself(self):
        assert trace_id_of("cmd-c0-1") == "cmd-c0-1"

    def test_derived_ids_map_back(self):
        assert trace_id_of("cmd-c0-1:c2") == "cmd-c0-1"
        assert trace_id_of("cmd-c0-1:m1") == "cmd-c0-1"
        assert trace_id_of("cmd-c0-1:omove") == "cmd-c0-1"

    def test_only_first_suffix_is_stripped(self):
        assert trace_id_of("cmd:c1:r2") == "cmd"


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.begin_trace("x", "c0", 0.0)
        NULL_TRACER.end_trace("x", 1.0)
        NULL_TRACER.span("x", "consult", "c0", 0.0, 1.0)
        NULL_TRACER.mark_send("x", 0.5)
        assert NULL_TRACER.sent_at("x") is None


class TestCommandTracer:
    def test_root_span_lifecycle(self):
        tracer = CommandTracer()
        assert tracer.enabled is True
        tracer.begin_trace("cmd-1", "c0", 1.0, op="get")
        assert tracer.open_traces() == ["cmd-1"]
        tracer.end_trace("cmd-1", 3.5, status="ok")
        assert tracer.open_traces() == []
        (root,) = tracer.roots()
        assert root.span_id == "cmd-1#root"
        assert root.parent is None
        assert root.name == "command"
        assert root.duration == 2.5
        assert root.meta == {"status": "ok", "op": "get"}

    def test_end_without_begin_is_ignored(self):
        tracer = CommandTracer()
        tracer.end_trace("ghost", 1.0)
        assert tracer.spans == []

    def test_child_spans_get_sequential_ids_and_parent(self):
        tracer = CommandTracer()
        tracer.span("cmd-1", "consult", "c0", 0.0, 1.0, stage=True)
        tracer.span("cmd-1", "execute", "c0", 1.0, 2.0, stage=True)
        tracer.span("cmd-2", "execute", "c1", 0.0, 1.0, stage=True)
        ids = [s.span_id for s in tracer.spans]
        assert ids == ["cmd-1#0", "cmd-1#1", "cmd-2#0"]
        assert all(s.parent == f"{s.trace}#root" for s in tracer.spans)

    def test_send_marks(self):
        tracer = CommandTracer()
        assert tracer.sent_at("cmd-1") is None
        tracer.mark_send("cmd-1", 4.2)
        assert tracer.sent_at("cmd-1") == 4.2
        tracer.mark_send("cmd-1", 5.0)   # resend overwrites
        assert tracer.sent_at("cmd-1") == 5.0

    def test_queries(self):
        tracer = CommandTracer()
        tracer.span("b", "execute", "n", 0.0, 1.0, stage=True)
        tracer.span("a", "order", "n", 0.0, 1.0)
        tracer.span("b", "queue", "n", 1.0, 2.0)
        grouped = spans_by_trace(tracer.spans)
        assert list(grouped) == ["b", "a"]   # first-appearance order
        assert len(grouped["b"]) == 2
        assert [s.trace for s in tracer.spans if s.stage] == ["b"]
        assert len(tracer) == 3

    def test_spans_by_trace_preserves_order(self):
        spans = [Span("t", f"t#{i}", "t#root", "execute", "n",
                      float(i), float(i + 1)) for i in range(3)]
        grouped = spans_by_trace(spans)
        assert [s.span_id for s in grouped["t"]] == ["t#0", "t#1", "t#2"]
