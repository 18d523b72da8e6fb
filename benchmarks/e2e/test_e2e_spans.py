"""Self-time arithmetic and patching of the outside-in span tracer."""

import sys
import types

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def test_self_time_subtracts_wrapped_children(clock):
    tracer = spans.SpanTracer()
    inner = tracer.wrap("memory:inner", lambda: clock.tick(5))

    def middle_body():
        clock.tick(3)
        inner()
        inner()

    middle = tracer.wrap("pe:middle", middle_body)

    def outer_body():
        clock.tick(1)
        middle()
        clock.tick(2)

    with tracer.span("harness:run"):
        outer_body()

    assert tracer.stats["memory:inner"] == [2, 10.0, 10.0]
    assert tracer.stats["pe:middle"] == [1, 13.0, 3.0]
    assert tracer.stats["harness:run"] == [1, 16.0, 3.0]
    layers = tracer.layer_self()
    assert layers == {"memory": 10.0, "pe": 3.0, "harness": 3.0}
    # Self times telescope: together they cover the root span exactly.
    assert sum(layers.values()) == tracer.total("harness:run")


def test_coarse_spans_keep_parent_and_times(clock):
    tracer = spans.SpanTracer()
    run = tracer.wrap_coarse("system:run", lambda: clock.tick(4))
    with tracer.span("harness:setup"):
        clock.tick(1)
    with tracer.span("harness:run"):
        run()
        run()
    names = [(name, parent) for _, name, parent, _, _ in tracer.coarse]
    assert names == [("harness:setup", None), ("harness:run", None),
                     ("system:run", 1), ("system:run", 1)]
    assert [(s, e) for *_, s, e in tracer.coarse] == [
        (0.0, 1.0), (1.0, 9.0), (1.0, 5.0), (5.0, 9.0)]


def test_exception_unwinds_the_stack(clock):
    tracer = spans.SpanTracer()

    def boom():
        clock.tick(2)
        raise ValueError("boom")

    failing = tracer.wrap("pe:boom", boom)
    with tracer.span("harness:run"):
        with pytest.raises(ValueError):
            failing()
        clock.tick(1)
    assert tracer.stats["pe:boom"] == [1, 2.0, 2.0]
    assert tracer.stats["harness:run"] == [1, 3.0, 1.0]
    assert tracer._stack == []


def test_unattributed_fraction(clock):
    tracer = spans.SpanTracer()
    with tracer.span("harness:run"):
        clock.tick(9)
    metrics = spans.layer_metrics(tracer, wall_s=10.0)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.1)
    assert metrics["harness.self_s"] == 9.0
    assert set(metrics) == set(spans.LAYER_UNITS)


def test_patch_function_reaches_by_name_copies(monkeypatch):
    home = types.ModuleType("repro._e2e_home")
    user = types.ModuleType("repro._e2e_user")

    def work(x):
        return x + 1

    home.work = work
    user.work = work  # a ``from home import work`` binding
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = spans.SpanTracer()
    tracer.patch_function(home.__name__, "work", "kernels:work",
                          on_return=lambda args, r: tracer.add("seen", r))
    assert home.work(1) == 2 and user.work(2) == 3
    assert tracer.count("kernels:work") == 2
    assert tracer.counts["seen"] == 5
    tracer.uninstall()
    assert home.work is work and user.work is work


def test_patch_method_and_uninstall():
    class Engine:
        def step(self):
            return "stepped"

    original = Engine.__dict__["step"]
    tracer = spans.SpanTracer()
    tracer.patch_method(Engine, "step", "pe:Engine.step")
    engine = Engine()
    assert engine.step() == "stepped"
    assert tracer.count("pe:Engine.step") == 1
    tracer.uninstall()
    assert Engine.__dict__["step"] is original
