"""The names the benchmark's traced run wraps or reads from outside.

``perfbench/layers.py`` patches hopfring in place: it wraps the methods in
``METHODS`` through their class ``__dict__``, times the functions named in
``SPAN_TIMES`` and ``CALL_COUNTS`` by replacing public module-level
functions, and reads the size of each relation check from its arguments.
A refactor that renames or moves one of these would leave its metric at
zero without an error; these tests fail instead.  The file is executed
from its source, without importing it, so nothing under perfbench/ is
written or left patched.
"""

import importlib
import inspect
import types
from pathlib import Path

from hopfring import repn
from hopfring.algebra import AlgebraSpec, build_algebra
from hopfring.labels import Label

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    path = PERFBENCH / "layers.py"
    mod = types.ModuleType("perfbench_layers")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


LAYERS = _layers()


def _layer(name):
    return importlib.import_module("hopfring." + name)


def test_every_wrapped_method_is_defined_on_its_class():
    for layer, cls_name, meth, _ in LAYERS.METHODS:
        cls = getattr(_layer(layer), cls_name)
        assert meth in cls.__dict__, "%s.%s.%s" % (layer, cls_name, meth)


def test_every_timed_or_counted_name_is_wrapped():
    methods = {"%s.%s.%s" % entry[:3] for entry in LAYERS.METHODS}
    names = set(LAYERS.SPAN_TIMES.values())
    for group in LAYERS.CALL_COUNTS.values():
        names.update(group)
    for name in sorted(names):
        parts = name.split(".")
        if len(parts) == 3:
            assert name in methods, name
            continue
        layer, attr = parts
        assert layer in LAYERS.LAYERS and not attr.startswith("_"), name
        mod = _layer(layer)
        obj = getattr(mod, attr, None)
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name


def test_relation_check_size_is_read_from_the_action_matrices(monkeypatch):
    tracer = LAYERS.Tracer()
    seen = []
    real = repn.check_module_relations

    def traced(*args):
        args = tracer._relation_args(args)
        seen.append(args[1][0].rows)
        return real(*args)

    monkeypatch.setattr(repn, "check_module_relations", traced)
    H = build_algebra(AlgebraSpec("tensor_taft", 3))
    M = repn.tensor_module(repn.simple_S(1, 0, H), repn.projective_P(0, 1, H))
    assert seen[-1] == M.dim == 9
    assert all(type(dim) is int for dim in seen)
    assert tracer.sizes["repn.relation_check_dims"] == sum(seen)


def test_set_up_keywords_of_the_benchmark_child_are_accepted():
    spec = AlgebraSpec("tensor_taft", 3)
    H = build_algebra(spec, assoc_sample=200, seed=1)
    assert H is build_algebra(spec)
    cat = repn.module_catalog(H, seed=1)
    assert Label("S", 0, 0) in cat.labels
