"""Tests for network tracing."""

from repro.net import FixedLatency, Network, NetworkTracer, format_trace
from repro.sim import SeedStream


def traced_net(env, **tracer_kwargs):
    net = Network(env, SeedStream(0), FixedLatency(0.5))
    tracer = NetworkTracer(**tracer_kwargs)
    net.attach_tracer(tracer)
    return net, tracer


class TestTracer:
    def test_send_and_delivery_recorded(self, env):
        net, tracer = traced_net(env)
        net.register("b")
        net.send("a", "b", "ping", size=64)
        env.run()
        events = [r.event for r in tracer.records]
        assert events == ["sent", "delivered"]
        assert tracer.records[0].time == 0.0
        assert tracer.records[1].time == 0.5

    def test_drop_recorded(self, env):
        net, tracer = traced_net(env)
        net.register("b")
        net.add_drop_rule(lambda m: True)
        net.send("a", "b", "ping")
        env.run()
        assert [r.event for r in tracer.records] == ["dropped"]
        assert len(tracer.dropped()) == 1

    def test_crashed_receiver_drop_recorded(self, env):
        net, tracer = traced_net(env)
        net.register("b")
        net.send("a", "b", "ping")
        net.crash("b")
        env.run()
        assert [r.event for r in tracer.records] == ["sent", "dropped"]

    def test_kind_filter(self, env):
        net, tracer = traced_net(env, kinds=["important"])
        net.register("b")
        net.send("a", "b", "noise")
        net.send("a", "b", "important")
        env.run()
        assert all(r.kind == "important" for r in tracer.records)
        assert len(tracer.by_kind("important")) == 2

    def test_query_helpers(self, env):
        net, tracer = traced_net(env)
        net.register("b")
        net.register("c")
        message = net.send("a", "b", "x")
        net.send("c", "b", "y")
        env.run()
        assert len(tracer.filter(lambda r: "c" in (r.src, r.dst))) == 2
        assert len(tracer.between(0.4, 0.6)) == 2  # the two deliveries
        journey = tracer.filter(lambda r: r.msg_id == message.msg_id)
        assert [r.event for r in journey] == ["sent", "delivered"]

    def test_capacity_bound(self, env):
        net, tracer = traced_net(env, capacity=3)
        net.register("b")
        for _ in range(5):
            net.send("a", "b", "x")
        env.run()
        assert len(tracer) == 3

    def test_format_trace_readable(self, env):
        net, tracer = traced_net(env)
        net.register("b")
        net.send("a", "b", "ping", size=64)
        env.run()
        text = format_trace(tracer.records)
        assert "ping" in text
        assert "=>" in text and "->" in text

    def test_detach(self, env):
        net, tracer = traced_net(env)
        net.register("b")
        net.attach_tracer(None)
        net.send("a", "b", "x")
        env.run()
        assert len(tracer) == 0
