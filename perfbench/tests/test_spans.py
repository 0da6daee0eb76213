"""The span tracer and its generator-aware wrappers."""

import types

import pytest

from benchlib.spans import Patches, Tracer, wrap


def _inner():
    got = yield "a"
    got2 = yield f"b{got}"
    return got + got2


def _outer():
    value = yield from _inner()
    yield "c"
    return value * 10


def _drive(gen, sends):
    out = [gen.send(None)]
    for value in sends:
        try:
            out.append(gen.send(value))
        except StopIteration as stop:
            return out, stop.value
    raise AssertionError("generator did not finish")


def test_generator_wrapper_is_transparent():
    tracer = Tracer()
    wrapped = wrap(tracer, _inner, "inner")
    assert _drive(_inner(), [1, 2]) == _drive(wrapped(), [1, 2])
    assert tracer.counts() == {"inner": 1}
    # three resumptions: up to "a", up to "b1", up to the return
    assert tracer.by_name()["inner"]["spans"] == 3


def test_thrown_exception_reaches_the_wrapped_generator():
    def catcher():
        try:
            yield 1
        except KeyError:
            return "caught"

    gen = wrap(Tracer(), catcher, "c")()
    assert next(gen) == 1
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "caught"


def test_self_time_excludes_children_and_parents_nest():
    tracer = Tracer()
    inner = wrap(tracer, _inner, "inner")

    def outer():
        value = yield from inner()
        yield "c"
        return value

    wrapped = wrap(tracer, outer, "outer")
    _drive(wrapped(), [1, 2, None])
    table = tracer.table()
    assert ("inner", "outer") in table
    assert ("outer", None) in table
    out = table[("outer", None)]
    assert out.self_ns == out.total_ns - table[("inner", "outer")].total_ns
    assert all(a.self_ns >= 0 for a in table.values())


def test_on_return_sees_the_return_value():
    seen = []
    wrapped = wrap(Tracer(), _inner, "inner",
                   on_return=lambda tr, value: seen.append(value))
    _drive(wrapped(), [1, 2])
    plain = wrap(Tracer(), len, "len",
                 on_return=lambda tr, value: seen.append(value))
    plain([1, 2, 3])
    assert seen == [3, 3]


def test_patches_wrap_class_and_module_attributes_and_restore():
    class Box:
        def get(self):
            return 7

    module = types.SimpleNamespace(fn=lambda: 8)
    original_get, original_fn = Box.__dict__["get"], module.fn
    tracer = Tracer(sample_names=("box.get",))
    with Patches(tracer, [(Box, "get", "box.get"), (module, "fn", "m.fn")]):
        box = Box()  # bound after installation: sees the wrapper
        assert box.get() == 7 and module.fn() == 8
    assert Box.__dict__["get"] is original_get and module.fn is original_fn
    assert tracer.counts() == {"box.get": 1, "m.fn": 1}
    assert len(tracer.samples["box.get"]) == 1
    assert len(tracer.dump()["raw"]) == 2
