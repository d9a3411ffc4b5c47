"""Span arithmetic and wrapper hygiene."""

import time

import pytest

import layers
from spans import Target, Tracer, resolve


class Inner:
    def leaf(self, seconds):
        time.sleep(seconds)
        return b"xy"

    def boom(self):
        raise ValueError("boom")


class Outer:
    def __init__(self):
        self.inner = Inner()

    def work(self, seconds):
        time.sleep(seconds)
        self.inner.leaf(seconds)
        self.inner.leaf(seconds)

    def recurse(self, depth, seconds):
        time.sleep(seconds)
        if depth:
            self.recurse(depth - 1, seconds)

    def register(self, callback, label=None):
        self.callback = callback


def _tracer():
    tracer = Tracer(lambda module: "cb" if module == __name__ else None)
    Inner.leaf = tracer.wrap(Inner.leaf, "inner", "leaf", measure=lambda a, r: len(r))
    Inner.boom = tracer.wrap(Inner.boom, "inner", "boom")
    Outer.work = tracer.wrap(Outer.work, "outer", "work")
    Outer.recurse = tracer.wrap(Outer.recurse, "outer", "recurse")
    Outer.register = tracer.wrap(Outer.register, "outer", "register", callbacks=True)
    return tracer


@pytest.fixture
def traced_classes():
    saved = [(cls, name, vars(cls)[name]) for cls in (Inner, Outer)
             for name in vars(cls) if not name.startswith("__")]
    yield _tracer()
    for cls, name, original in saved:
        setattr(cls, name, original)


def test_parent_self_is_total_minus_children(traced_classes):
    tracer = traced_classes
    with tracer.root():
        Outer().work(0.01)
    assert tracer.calls("outer", "work") == 1
    assert tracer.calls("inner", "leaf") == 2
    assert tracer.measured("inner") == 4
    # work sleeps 10 ms itself and 20 ms in its two children.
    assert tracer.self_s("outer") == pytest.approx(0.01, abs=0.005)
    assert tracer.self_s("inner") == pytest.approx(0.02, abs=0.005)
    total = sum(tracer.self_s(layer) for layer in tracer.layers())
    assert total == pytest.approx(tracer.root_s, abs=1e-9)


def test_reentrant_spans_count_each_instant_once(traced_classes):
    tracer = traced_classes
    with tracer.root():
        Outer().recurse(3, 0.005)
    assert tracer.calls("outer", "recurse") == 4
    assert tracer.self_s("outer") == pytest.approx(0.02, abs=0.005)
    assert tracer.self_s("outer") <= tracer.root_s
    assert tracer.self_s("outer") + tracer.self_s(None) == pytest.approx(
        tracer.root_s, abs=1e-9
    )


def test_nothing_is_counted_outside_the_root_span(traced_classes):
    tracer = traced_classes
    Outer().work(0.001)
    assert tracer.calls("outer") == 0 and tracer.self_s("outer") == 0.0


def test_raising_calls_are_counted_and_the_stack_unwinds(traced_classes):
    tracer = traced_classes
    with tracer.root():
        with pytest.raises(ValueError):
            Inner().boom()
        Inner().leaf(0.0)
    assert tracer.raised("inner") == 1
    assert tracer.calls("inner") == 2
    total = sum(tracer.self_s(layer) for layer in tracer.layers())
    assert total == pytest.approx(tracer.root_s, abs=1e-9)


def test_callbacks_get_a_span_named_by_their_module_and_label(traced_classes):
    tracer = traced_classes
    outer = Outer()

    def callback():
        time.sleep(0.005)

    outer.register(callback, label="vehicle-12-produce")
    registered = outer.callback
    outer.register(registered, label="vehicle-12-produce")
    assert outer.callback is registered  # a span is not wrapped again
    with tracer.root():
        outer.callback()
    assert tracer.calls("cb", "produce") == 1
    assert tracer.self_s("cb") == pytest.approx(0.005, abs=0.004)


def test_install_and_remove_restore_the_program():
    from repro.core import wire
    from repro.streaming.broker import Broker
    from repro.streaming.serde import JsonSerde

    before = (
        vars(Broker)["produce"], vars(JsonSerde)["serialize"],
        wire.decode_telemetry_segments,
    )
    tracer = Tracer(layers.layer_of_module)
    tracer.install(layers.CORRIDOR_TARGETS + layers.CITY_TARGETS)
    assert not tracer.missing
    assert vars(Broker)["produce"] is not before[0]
    assert getattr(vars(Broker)["produce"], "_spine_span", False)
    tracer.remove()
    after = (
        vars(Broker)["produce"], vars(JsonSerde)["serialize"],
        wire.decode_telemetry_segments,
    )
    assert after == before
    import repro.core.rsu as rsu_module

    assert not getattr(rsu_module.decode_telemetry_segments, "_spine_span", False)


def test_a_missing_target_is_listed_not_raised():
    tracer = Tracer(layers.layer_of_module)
    tracer.install(
        [
            Target("repro.streaming.broker.Broker.no_such_method", "streaming.broker"),
            Target("repro.no_such_module.Thing.method", "nowhere"),
            Target("repro.streaming.broker.Broker.available", "streaming.broker"),
        ]
    )
    tracer.remove()
    assert len(tracer.missing) == 3 and not tracer.resolved
    assert not tracer.layer_resolved("streaming.broker", layers.CORRIDOR_TARGETS)
    assert resolve("repro.streaming.broker.Broker.produce") is not None


def test_every_repro_module_prefix_maps_to_one_layer():
    assert layers.layer_of_module("repro.core.wire") == "streaming.serde"
    assert layers.layer_of_module("repro.ml.naive_bayes") == "core.detector"
    assert layers.layer_of_module("repro.core.collaborative") == "core.detector"
    assert layers.layer_of_module("repro.core.collab") == "core.collab"
    assert layers.layer_of_module("repro.core.system") is None
    assert layers.layer_of_module(None) is None
