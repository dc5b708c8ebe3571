"""Outside-in tracing of the hopfring layers for the benchmark's traced run.

The package carries no instrumentation of its own, so the traced run wraps
it from outside before any command code runs:

* every public module-level function of a layer module gets a span, and the
  wrapper replaces the function in every ``hopfring`` namespace that bound
  it at import (``cli`` binds ``fusion_table`` by name, ``structure`` binds
  ``kernel_basis``, ...); function-local ``from .linalg import invert``
  imports read the patched module attribute at call time;
* a short list of methods gets a span or a counter (``Algebra.mul``,
  ``TableAlgebra.radical``, ...);
* the cyclotomic operators, ``Algebra.mono_mul``, ``Mat.__mul__`` and
  ``SpanBuilder.insert`` are only counted: they run 10^6-10^7 times, and a
  timer around each call would cost more than the work it times.

Spans carry name, start, end and parent.  They are kept in memory in flat
arrays and written out when the command ends.  A span's self time is its
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cyclo", "linalg", "algebra", "hopf", "structure", "fdalg", "repn", "green", "cli")

# (layer, class, method, how); "span" times the call, "count" only counts it.
METHODS = (
    ("cyclo", "CycloNum", "__mul__", "count"),
    ("cyclo", "CycloNum", "__rmul__", "count"),
    ("cyclo", "CycloNum", "__add__", "count"),
    ("cyclo", "CycloNum", "__sub__", "count"),
    ("cyclo", "CycloNum", "inverse", "count"),
    ("linalg", "Mat", "__mul__", "count"),
    ("linalg", "SpanBuilder", "insert", "count"),
    ("algebra", "Algebra", "mono_mul", "count"),
    ("algebra", "Algebra", "mul", "span"),
    ("hopf", "HopfMaps", "delta_mono", "count"),
    ("hopf", "HopfMaps", "respects_relations", "span"),
    ("fdalg", "TableAlgebra", "radical", "span"),
    ("fdalg", "TableAlgebra", "gram", "span"),
    ("fdalg", "TableAlgebra", "ideal_span", "span"),
    ("fdalg", "TableAlgebra", "nilpotency_index", "span"),
    ("fdalg", "TableAlgebra", "quotient_by_ideal", "span"),
)

# metric -> span whose outermost calls it times (nested calls of the same
# span are inside the outer one and are not counted twice).
SPAN_TIMES = {
    "linalg.rref_s": "linalg.rref_rows",
    "linalg.kernel_s": "linalg.kernel_basis",
    "linalg.kronecker_s": "linalg.kronecker",
    "algebra.build_s": "algebra.build_algebra",
    "algebra.elt_mul_s": "algebra.Algebra.mul",
    "hopf.axioms_s": "hopf.verify_hopf_axioms",
    "hopf.respects_relations_s": "hopf.HopfMaps.respects_relations",
    "hopf.tensor_iso_s": "hopf.tensor_iso_check",
    "structure.radical_s": "structure.jacobson_radical",
    "structure.loewy_s": "structure.loewy_length",
    "structure.integrals_s": "structure.integrals_and_symmetry",
    "structure.blocks_s": "structure.center_and_blocks",
    "structure.block_iso_s": "structure.blocks_isomorphic_H0",
    "fdalg.radical_s": "fdalg.TableAlgebra.radical",
    "repn.relation_check_s": "repn.check_module_relations",
    "repn.hom_dim_s": "repn.hom_dim",
    "repn.weightized_s": "repn.weightized",
    "repn.decompose_s": "repn.decompose",
    "repn.catalog_s": "repn.module_catalog",
    "repn.radical_filtration_s": "repn.radical_filtration",
    "repn.spin_s": "repn.spin_module",
    "green.fusion_table_s": "green.fusion_table",
    "green.closed_form_s": "green.closed_form_fusion",
    "green.presentation_s": "green.verify_presentation",
    "green.identity_suite_s": "green.identity_suite_H1",
    "green.class_radical_s": "green.class_algebra_radical",
    "green.quiver_s": "green.quiver_check_H0",
}

CALL_COUNTS = {
    "cyclo.mul_calls": ("cyclo.CycloNum.__mul__", "cyclo.CycloNum.__rmul__"),
    "cyclo.add_calls": ("cyclo.CycloNum.__add__", "cyclo.CycloNum.__sub__"),
    "cyclo.inverse_calls": ("cyclo.CycloNum.inverse",),
    "linalg.rref_calls": ("linalg.rref_rows",),
    "linalg.span_insert_calls": ("linalg.SpanBuilder.insert",),
    "linalg.matmul_calls": ("linalg.Mat.__mul__",),
    "algebra.mono_mul_calls": ("algebra.Algebra.mono_mul",),
    "algebra.elt_mul_calls": ("algebra.Algebra.mul",),
    "hopf.delta_calls": ("hopf.HopfMaps.delta_mono",),
    "fdalg.radical_calls": ("fdalg.TableAlgebra.radical",),
    "repn.tensor_calls": ("repn.tensor_module",),
    "repn.relation_check_calls": ("repn.check_module_relations",),
    "repn.hom_dim_calls": ("repn.hom_dim",),
    "repn.decompose_calls": ("repn.decompose",),
}

SELF_TIMES = tuple(layer for layer in LAYERS if layer != "cyclo")

# Unit of every metric Tracer.metrics returns.
UNITS = dict(
    [(m, "s") for m in SPAN_TIMES]
    + [(layer + ".self_s", "s") for layer in SELF_TIMES]
    + [(m, "count") for m in CALL_COUNTS]
    + [
        ("linalg.rref_cells", "count"),
        ("repn.relation_check_dims", "count"),
        ("repn.tensor_check_calls", "count"),
        ("repn.tensor_build_s", "s"),
        ("algebra.pair_memo_misses", "count"),
    ]
)


class Tracer:
    """Span and counter store for one command process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self._stack = []
        self.counts = {}
        self.sizes = {"linalg.rref_cells": 0, "repn.relation_check_dims": 0}
        self.pair_keys = set()
        self.builds = []

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, before=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        stack = self._stack
        active = [0]
        calls = self.counts.setdefault(name, [0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            calls[0] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(0 if active[0] else 1)
            ends.append(0.0)
            stack.append(idx)
            active[0] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[0] -= 1
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        cell = [0]
        self.counts[name] = cell

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _rref_args(self, args):
        vectors, field, ncols = args
        vectors = list(vectors)
        self.sizes["linalg.rref_cells"] += len(vectors) * ncols
        return (vectors, field, ncols)

    def _relation_args(self, args):
        self.sizes["repn.relation_check_dims"] += args[1][0].rows
        return args

    # -- installation ---------------------------------------------------------

    def install(self):
        """Import every layer and wrap it in place; returns self."""
        mods = {layer: importlib.import_module("hopfring." + layer) for layer in LAYERS}
        importlib.import_module("hopfring")
        replaced = {}
        hooks = {
            "linalg.rref_rows": self._rref_args,
            "repn.check_module_relations": self._relation_args,
        }
        for layer, mod in mods.items():
            if layer == "cyclo":
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                replaced[obj] = self.span(name, obj, hooks.get(name))
        for layer, cls_name, meth, how in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            name = "%s.%s.%s" % (layer, cls_name, meth)
            if how == "span":
                wrapped = self.span(name, fn)
            elif name == "algebra.Algebra.mono_mul":
                wrapped = self._mono_mul_counter(name, fn)
            else:
                wrapped = self.counter(name, fn)
            setattr(cls, meth, wrapped)
        self._watch_builds(mods["algebra"], replaced)
        for modname, mod in list(sys.modules.items()):
            if modname != "hopfring" and not modname.startswith("hopfring."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        return self

    def _mono_mul_counter(self, name, fn):
        cell = [0]
        self.counts[name] = cell
        seen = self.pair_keys

        @functools.wraps(fn)
        def wrapper(alg, u, v):
            cell[0] += 1
            seen.add((id(alg), u, v))
            return fn(alg, u, v)

        return wrapper

    def _watch_builds(self, algebra_mod, replaced):
        """Record the (spec key, assoc_sample) of every build_algebra call."""
        spanned = replaced[algebra_mod.build_algebra]
        builds = self.builds

        @functools.wraps(spanned)
        def build_algebra(spec, assoc_sample=500, seed=0):
            builds.append([repr(spec.key()), assoc_sample])
            return spanned(spec, assoc_sample=assoc_sample, seed=seed)

        replaced[algebra_mod.build_algebra] = build_algebra

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer totals of this process (counts, sizes and seconds)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        by_name = [0.0] * len(self.names)
        self_by_layer = dict.fromkeys(SELF_TIMES, 0.0)
        for i in range(n):
            nid = self.span_name[i]
            if self.span_outer[i]:
                by_name[nid] += dur[i]
            self_by_layer[layer_of[nid]] += dur[i] - child[i]
        ids = self._name_ids
        out = {}
        for metric, span_name in SPAN_TIMES.items():
            nid = ids.get(span_name)
            out[metric] = by_name[nid] if nid is not None else 0.0
        for layer, secs in self_by_layer.items():
            out[layer + ".self_s"] = secs
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(self.counts.get(name, [0])[0] for name in names)
        out.update(self.sizes)
        out["algebra.pair_memo_misses"] = len(self.pair_keys)
        # the relation check a tensor_module call triggers is not build time
        tensor = ids.get("repn.tensor_module")
        check = ids.get("repn.check_module_relations")
        build = by_name[tensor] if tensor is not None else 0.0
        triggered = 0
        if tensor is not None and check is not None:
            for i in range(n):
                p = self.span_parent[i]
                if self.span_name[i] == check and p >= 0 and self.span_name[p] == tensor:
                    build -= dur[i]
                    triggered += 1
        out["repn.tensor_build_s"] = build
        out["repn.tensor_check_calls"] = triggered
        return out

    def write_spans(self, path):
        """Write the spans as one JSON document: a name table and rows of
        [name index, parent span index, start, end]."""
        rows = [
            [self.span_name[i], self.span_parent[i],
             round(self.span_start[i], 7), round(self.span_end[i], 7)]
            for i in range(len(self.span_name))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
