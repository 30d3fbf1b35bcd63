"""Span tracer for the benchmark's traced runs; lndkit itself is not modified.

``Tracer.install`` wraps the public functions and methods of every lndkit
module (and every re-imported binding of them, such as
``randgen.find_slice`` or ``runner.buchberger``) plus the entries of the
runner's family table.  ``uninstall`` restores the originals, so untraced
passes run the unwrapped program.

Two kinds of wrapper:

* span wrappers record one span per call: name, op id, span id, parent span
  id, start, end, time in child spans, time in aggregated calls.  Spans are
  kept in column arrays and written out once, at the end of the run.
* aggregate wrappers are used for the calls too frequent to record one by
  one: everything in ``context``/``polynomial``/``ordering``, property
  getters, ``groebner.leading_term`` and ``linalg.vec_of``.  They count
  every call and charge the time of the outermost one to the enclosing span
  (split by layer), so memory stays bounded by the number of spans.

A layer's self time is the self time of its spans (duration minus child
spans and aggregated calls) plus the aggregated time charged to it.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import FunctionType

LAYERS = ("polynomial", "derivation", "linalg", "subalgebra", "slices",
          "groebner", "polygcd", "parse", "harness")

_MODULE_LAYER = {
    "lndkit.context": "polynomial",
    "lndkit.polynomial": "polynomial",
    "lndkit.derivation": "derivation",
    "lndkit.linalg": "linalg",
    "lndkit.subalgebra": "subalgebra",
    "lndkit.slices": "slices",
    "lndkit.groebner": "groebner",
    "lndkit.ordering": "groebner",
    "lndkit.polygcd": "polygcd",
    "lndkit.parse": "parse",
}
_AGGREGATED_MODULES = ("lndkit.context", "lndkit.polynomial", "lndkit.ordering")
_AGGREGATED_NAMES = ("groebner.leading_term", "linalg.vec_of")
_POLYNOMIAL_DUNDERS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__pow__", "__eq__", "__hash__", "__str__")
_FAMILY_PREFIX = "harness.family."


def layer_of(module_name: str) -> str | None:
    if module_name.startswith("lndkit.harness"):
        return "harness"
    return _MODULE_LAYER.get(module_name)


def _short(module_name: str) -> str:
    return module_name.split(".")[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.calls = array("q")
        self.active = array("q")
        self._ids: dict[str, int] = {}
        # span columns, appended when a span ends
        self.s_id = array("q")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_name = array("i")
        self.s_outer = array("b")
        self.s_t0 = array("d")
        self.s_t1 = array("d")
        self.s_child = array("d")
        self.s_agg_same = array("d")
        self.s_agg_other = array("d")
        self.s_book = array("d")
        self.agg_layer_s = [0.0] * len(LAYERS)
        # a span record is [span id, child span seconds, aggregated seconds by
        # layer, bookkeeping seconds]; root stands in for "no enclosing span"
        self.root = [-1, 0.0, [0.0] * len(LAYERS), 0.0]
        self.counters = {"independent_inserts": 0, "span_products": 0, "span_rank": 0,
                         "member_hits": 0, "slice_hits": 0, "ideal_yes": 0, "basis_len": 0,
                         "dixmier_applies": 0}
        self.max_coeff_bits = 0
        self.stack: list[list] = []
        self.on = False
        self.op = -1
        self._next_span = 0
        self._agg_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._dixmier = -1
        self.last_attributed = 0.0

    # -- registry ------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.calls.append(0)
            self.active.append(0)
        return nid

    def name_id(self, name: str) -> int:
        return self._ids.get(name, -1)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        lidx = LAYERS.index(layer)
        tr = self
        stack, calls, active = self.stack, self.calls, self.active
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            calls[nid] += 1
            active[nid] += 1
            sid = tr._next_span
            tr._next_span = sid + 1
            parent = stack[-1] if stack else tr.root
            rec = [sid, 0.0, [0.0] * len(LAYERS), 0.0]
            stack.append(rec)
            saved_depth = tr._agg_depth
            tr._agg_depth = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._agg_depth = saved_depth
                stack.pop()
                active[nid] -= 1
                parent[1] += t1 - t0
                agg = rec[2]
                same = agg[lidx]
                tr.s_id.append(sid)
                tr.s_parent.append(parent[0])
                tr.s_op.append(tr.op)
                tr.s_name.append(nid)
                tr.s_outer.append(active[nid] == 0)
                tr.s_t0.append(t0)
                tr.s_t1.append(t1)
                tr.s_child.append(rec[1])
                tr.s_agg_same.append(same)
                tr.s_agg_other.append(sum(agg) - same)
                tr.s_book.append(rec[3])
            if hook is not None:
                hook(tr, args, result)
            return result

        return traced

    def _aggregate_wrapper(self, fn, name: str, layer: str, measure_bits: bool, init: bool):
        nid = self._name_id(name, layer)
        lidx = LAYERS.index(layer)
        tr = self
        stack, calls = self.stack, self.calls
        polynomial_type = None

        def traced(*args, **kwargs):
            nonlocal polynomial_type
            if not tr.on:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if tr._agg_depth:
                return fn(*args, **kwargs)
            tr._agg_depth = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._agg_depth = 0
            owner = stack[-1] if stack else tr.root
            owner[2][lidx] += t1 - t0
            tr.agg_layer_s[lidx] += t1 - t0
            if measure_bits:
                value = args[0] if init else result
                if polynomial_type is None:
                    polynomial_type = sys.modules["lndkit.polynomial"].Polynomial
                if isinstance(value, polynomial_type):
                    bits = tr.max_coeff_bits
                    for c in value.terms.values():
                        if c.numerator.bit_length() > bits or c.denominator.bit_length() > bits:
                            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    tr.max_coeff_bits = bits
                owner[3] += perf_counter() - t1
            return result

        return traced

    def _wrap(self, fn, name: str, module_name: str, prop: bool = False, init: bool = False):
        layer = layer_of(module_name)
        aggregated = prop or module_name in _AGGREGATED_MODULES or name in _AGGREGATED_NAMES
        if aggregated:
            bits = module_name == "lndkit.polynomial"
            return self._aggregate_wrapper(fn, name, layer, bits, init)
        return self._span_wrapper(fn, name, layer)

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lndkit" or n.startswith("lndkit."))]
        replaced: dict[int, object] = {}
        for module in modules:
            mname = module.__name__
            if layer_of(mname) is None:
                continue
            prefix = "harness" if mname.startswith("lndkit.harness") else _short(mname)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, FunctionType) and value.__module__ == mname:
                    wrapper = self._wrap(value, f"{prefix}.{attr}", mname)
                    replaced[id(value)] = wrapper
                elif (isinstance(value, type) and value.__module__ == mname
                      and not issubclass(value, BaseException)):
                    self._wrap_class(value, f"{prefix}.{attr}", mname)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        runner = sys.modules["lndkit.harness.runner"]
        for family, fn in list(runner._FAMILIES.items()):
            wrapper = self._span_wrapper(fn, _FAMILY_PREFIX + family, "harness")
            self._patches.append((runner._FAMILIES, family, fn))
            runner._FAMILIES[family] = wrapper
        self._dixmier = self.name_id("slices.dixmier")

    def _wrap_class(self, cls, qual: str, mname: str):
        dunders = ("__init__", "__post_init__")
        if qual == "polynomial.Polynomial":
            dunders += _POLYNOMIAL_DUNDERS
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            name = f"{qual}.{attr}"
            if isinstance(member, FunctionType):
                wrapped = self._wrap(member, name, mname, init=attr == "__init__")
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(self._wrap(member.__func__, name, mname))
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._wrap(member.__func__, name, mname))
            elif isinstance(member, property) and member.fget is not None:
                wrapped = property(self._wrap(member.fget, name, mname, prop=True),
                                   member.fset, member.fdel, member.__doc__)
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- ops ------------------------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id
        self.root = [-1, 0.0, [0.0] * len(LAYERS), 0.0]
        self.on = True

    def end_op(self) -> float:
        """Stop recording; returns the op time spent inside wrapped lndkit calls."""
        self.on = False
        self.last_attributed = self.root[1] + sum(self.root[2])
        return self.last_attributed

    # -- results -------------------------------------------------------------------

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "layers": [LAYERS[i] for i in self.name_layer],
                                 "columns": ["op", "span", "parent", "name", "start_s", "end_s",
                                             "child_s", "aggregated_s"]}) + "\n")
            for k in range(len(self.s_id)):
                fh.write(json.dumps([self.s_op[k], self.s_id[k], self.s_parent[k], self.s_name[k],
                                     self.s_t0[k], self.s_t1[k], self.s_child[k],
                                     self.s_agg_same[k] + self.s_agg_other[k]]) + "\n")

    def summary(self) -> dict:
        """Totals over every recorded span: per-layer and per-name figures."""
        nl = len(LAYERS)
        layer_self = list(self.agg_layer_s)
        layer_calls = [0] * nl
        for nid, count in enumerate(self.calls):
            layer_calls[self.name_layer[nid]] += count
        name_total: dict[int, float] = {}
        name_self_same: dict[int, float] = {}
        for k in range(len(self.s_id)):
            nid = self.s_name[k]
            dur = self.s_t1[k] - self.s_t0[k]
            self_same = dur - self.s_child[k] - self.s_agg_other[k] - self.s_book[k]
            layer_self[self.name_layer[nid]] += self_same - self.s_agg_same[k]
            name_self_same[nid] = name_self_same.get(nid, 0.0) + self_same
            if self.s_outer[k]:
                name_total[nid] = name_total.get(nid, 0.0) + dur
        return {
            "layer_self_s": dict(zip(LAYERS, layer_self)),
            "layer_calls": dict(zip(LAYERS, layer_calls)),
            "calls": {self.names[i]: c for i, c in enumerate(self.calls)},
            "total_s": {self.names[i]: t for i, t in name_total.items()},
            "self_same_layer_s": {self.names[i]: t for i, t in name_self_same.items()},
            "counters": dict(self.counters),
            "max_coeff_bits": self.max_coeff_bits,
            "spans": len(self.s_id),
        }


# -- result hooks: counts measured where the work happens ----------------------------


def _hook_insert(tr, args, result):
    if result is None:
        tr.counters["independent_inserts"] += 1


def _hook_span(tr, args, result):
    span = args[0]
    tr.counters["span_products"] += len(span.products)
    tr.counters["span_rank"] += len(span.space)


def _hook_member(tr, args, result):
    if result is not None:
        tr.counters["member_hits"] += 1


def _hook_slice(tr, args, result):
    if result is not None:
        tr.counters["slice_hits"] += 1


def _hook_ideal(tr, args, result):
    if result is not None:
        tr.counters["ideal_yes"] += 1


def _hook_basis(tr, args, result):
    tr.counters["basis_len"] += len(result.generators)


def _hook_apply(tr, args, result):
    if tr._dixmier >= 0 and tr.active[tr._dixmier] > 0:
        tr.counters["dixmier_applies"] += 1


_HOOKS = {
    "linalg.RowSpace.insert": _hook_insert,
    "subalgebra.GeneratorSpan.__init__": _hook_span,
    "subalgebra.subalgebra_member": _hook_member,
    "slices.find_slice": _hook_slice,
    "groebner.ideal_member": _hook_ideal,
    "groebner.buchberger": _hook_basis,
    "derivation.Derivation.apply": _hook_apply,
}
