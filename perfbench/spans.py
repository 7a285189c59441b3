"""Spans around the public functions of every `anabel` module.

`Tracer.install()` replaces, at run time, each public function and each
public method of a class defined in a module by a wrapper that records a
span (name, start, end, parent). Where another module imported a function
by name, that name is replaced too, so calls across modules are caught
where they are made. Nothing under `src/` changes.

A call made from inside a span of the same module records no span of its
own, unless its name is in NAMED: its time belongs to that module either
way, and skipping it keeps the overhead and the span list small. So
`<module>.calls` counts the calls that enter the module from outside it.
Spans are kept in flat arrays and turned into metrics when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns
from typing import Dict, List

MODULES = ("poly", "poly_ops", "presentations", "cospec", "monoids", "graphs",
           "currents", "splitting", "gog", "intlin", "documents", "cli")

# functions whose every call gets a span, for the per-function metrics
NAMED = {
    "poly.PolysimplicialSet.validate", "poly.box_product",
    "poly_ops.quotient", "poly_ops.find_isomorphism", "poly_ops.category_pi1",
    "presentations.GroupPresentation.simplify",
    "monoids.AffineMonoid.contains", "monoids.cone_member",
    "monoids.check_integral_bounded", "monoids.check_saturated_bounded", "monoids.is_kummer",
    "graphs.enumerate_covers", "graphs.rigidity_kernel",
    "intlin.smith_normal_form", "gog.schreier_extension", "currents.current_group",
    "documents.load", "cli.main",
}
BENCH = "bench"


def _count_probe(name):
    """Counters read off a call's arguments and result."""
    if name == "poly.PolysimplicialSet.validate":
        return lambda args, kwargs, out: {"poly.cells_built": len(args[0].cells)}
    if name == "presentations.GroupPresentation.simplify":
        return lambda args, kwargs, out: {"presentations.relators_in": len(args[0].relators),
                                          "presentations.generators_out": len(out.generators)}
    if name == "graphs.enumerate_covers":
        return lambda args, kwargs, out: {"graphs.covers_built": len(out)}
    return None


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.module_of: List[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self._patched = []
        self._nested = None

    # -- recording ---------------------------------------------------------

    def _id(self, name: str, module: str) -> int:
        k = self.name_id.get(name)
        if k is None:
            k = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.module_of.append(module)
        return k

    def open(self, name: str, module: str = BENCH) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._id(name, module))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, module: str, qualname: str):
        name = f"{module}.{qualname}"
        always = name in NAMED
        probe = _count_probe(name)
        k = self._id(name, module)
        stack, module_of, span_name = self.stack, self.module_of, self.span_name
        start, end, parent, counts = self.start, self.end, self.parent, self.counts

        # open() and close() inlined: this runs on every call of the program
        def wrapper(*args, **kwargs):
            if not always and stack and module_of[span_name[stack[-1]]] == module:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(k)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                for key, v in probe(args, kwargs, out).items():
                    counts[key] = counts.get(key, 0) + v
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, *callers):
        """Wrap every module; `callers` are further modules (the workload's)
        whose imported names are replaced as well."""
        mods = {m: importlib.import_module(f"anabel.{m}") for m in MODULES}
        replaced = {}  # id(original function) -> wrapper
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(m, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    w = self.wrap(obj, m, attr)
                    replaced[id(obj)] = w
                    self._set(mod, attr, w)
        # names imported into other modules call the wrapper too
        for mod in list(mods.values()) + list(callers):
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and obj is not w:
                    self._set(mod, attr, w)

    def _wrap_class(self, m, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(obj.__func__, m, qual)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(obj, m, qual))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- merging spans of other processes -------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "modules": self.module_of,
                "span_name": list(self.span_name), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent), "counts": self.counts}

    def merge(self, data: dict):
        base = len(self.span_name)
        ids = [self._id(n, m) for n, m in zip(data["names"], data["modules"])]
        self.span_name.extend(ids[k] for k in data["span_name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        for k, v in data["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v

    # -- metrics ----------------------------------------------------------------

    def durations(self, name: str) -> List[int]:
        """Durations (ns) of the outermost spans with this name."""
        k = self.name_id.get(name)
        if k is None:
            return []
        nested = self._nested_in_same_name()
        return [self.end[i] - self.start[i]
                for i, s in enumerate(self.span_name) if s == k and not nested[i]]

    def _nested_in_same_name(self):
        """Per span: does an enclosing span carry the same NAMED name?
        Parents precede their children, so one forward pass suffices."""
        if self._nested is not None and len(self._nested) == len(self.span_name):
            return self._nested
        bit = {self.name_id[n]: 1 << b for b, n in enumerate(sorted(NAMED))
               if n in self.name_id}
        masks = [0] * len(self.span_name)
        nested = bytearray(len(self.span_name))
        for i, s in enumerate(self.span_name):
            p = self.parent[i]
            up = masks[p] if p >= 0 else 0
            b = bit.get(s, 0)
            if up & b:
                nested[i] = 1
            masks[i] = up | b
        self._nested = nested
        return nested

    def total_excluding(self, name: str, inner: List[str]) -> float:
        """Seconds in outermost `name` spans, minus the outermost spans of
        any `inner` name nested inside them."""
        k = self.name_id.get(name)
        if k is None:
            return 0.0
        inner_ids = {self.name_id[n] for n in inner if n in self.name_id}
        # span -> its outermost enclosing `name` span, walking parents once
        owner = array("i", [-1]) * len(self.span_name)
        total = 0
        for i, s in enumerate(self.span_name):
            p = self.parent[i]
            up = owner[p] if p >= 0 else -1
            if s == k and up < 0:
                owner[i] = i
                total += self.end[i] - self.start[i]
                continue
            owner[i] = up
            if up >= 0 and s in inner_ids and not self._inner_nested(i, inner_ids, up):
                total -= self.end[i] - self.start[i]
        return total / 1e9

    def _inner_nested(self, i, inner_ids, stop):
        p = self.parent[i]
        while p != stop:
            if self.span_name[p] in inner_ids:
                return True
            p = self.parent[p]
        return False

    def self_times(self) -> Dict[str, float]:
        """Seconds per module: span durations minus their children's."""
        child_sum = array("q", [0]) * len(self.span_name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_sum[p] += self.end[i] - self.start[i]
        out: Dict[str, float] = {}
        for i, s in enumerate(self.span_name):
            m = self.module_of[s]
            own = self.end[i] - self.start[i] - child_sum[i]
            out[m] = out.get(m, 0.0) + own / 1e9
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.span_name:
            m = self.module_of[s]
            out[m] = out.get(m, 0) + 1
        return out

    def layer_metrics(self) -> Dict[str, float]:
        selfs, calls = self.self_times(), self.calls()
        out: Dict[str, float] = {}
        for m in MODULES:
            out[f"{m}.self_s"] = selfs.get(m, 0.0)
            out[f"{m}.calls"] = calls.get(m, 0)
        out["bench.self_s"] = selfs.get(BENCH, 0.0)

        def secs(name):
            return sum(self.durations(name)) / 1e9

        out["poly.validate_s"] = secs("poly.PolysimplicialSet.validate")
        out["poly.box_product_s"] = self.total_excluding(
            "poly.box_product", ["poly.PolysimplicialSet.validate"])
        out["poly.cells_built"] = self.counts.get("poly.cells_built", 0)
        out["poly_ops.quotient_s"] = secs("poly_ops.quotient")
        out["poly_ops.find_isomorphism_s"] = secs("poly_ops.find_isomorphism")
        out["poly_ops.category_pi1_s"] = self.total_excluding(
            "poly_ops.category_pi1", ["presentations.GroupPresentation.simplify"])
        out["presentations.simplify_s"] = secs("presentations.GroupPresentation.simplify")
        out["presentations.relators_in"] = self.counts.get("presentations.relators_in", 0)
        out["presentations.generators_out"] = self.counts.get("presentations.generators_out", 0)
        contains = self.durations("monoids.AffineMonoid.contains")
        out["monoids.contains_s"] = sum(contains) / 1e9
        out["monoids.contains_calls"] = self._count_all("monoids.AffineMonoid.contains")
        out["monoids.cone_member_s"] = secs("monoids.cone_member")
        out["monoids.bounded_checks_s"] = sum(
            secs(n) for n in ("monoids.check_integral_bounded",
                              "monoids.check_saturated_bounded", "monoids.is_kummer"))
        out["graphs.enumerate_covers_s"] = secs("graphs.enumerate_covers")
        out["graphs.covers_built"] = self.counts.get("graphs.covers_built", 0)
        out["graphs.rigidity_kernel_s"] = self.total_excluding(
            "graphs.rigidity_kernel", ["graphs.enumerate_covers"])
        out["intlin.smith_normal_form_s"] = secs("intlin.smith_normal_form")
        out["intlin.snf_calls"] = self._count_all("intlin.smith_normal_form")
        out["gog.schreier_extension_s"] = secs("gog.schreier_extension")
        out["currents.current_group_s"] = secs("currents.current_group")
        return out

    def _count_all(self, name: str) -> int:
        k = self.name_id.get(name)
        return 0 if k is None else sum(1 for s in self.span_name if s == k)

    def per_root_ms(self, name: str) -> List[float]:
        """Per root span (one CLI call), the milliseconds spent in `name`."""
        k = self.name_id.get(name)
        if k is None:
            return []
        nested = self._nested_in_same_name()
        per_root: Dict[int, int] = {}
        for i, s in enumerate(self.span_name):
            if s != k or nested[i]:
                continue
            root = i
            while self.parent[root] >= 0:
                root = self.parent[root]
            per_root[root] = per_root.get(root, 0) + self.end[i] - self.start[i]
        return [v / 1e6 for _, v in sorted(per_root.items())]
