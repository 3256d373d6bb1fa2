"""Layer spans recorded from outside the program.

A `Tracer` wraps public functions of the weilgram modules and re-binds every
name a loaded weilgram module holds for them (``weilgram.curves.count_points``
and ``weilgram.cli.count_points`` are separate bindings of one function),
so calls between layers go through the wrapper.  Methods are wrapped on the
class.  Nothing under ``src/`` is edited.

Spans are aggregated in memory per name: calls, total time and self time.
Self time is a span's duration minus the time its child spans cover.  Leaf
wrappers (``FieldTable.mul``, ``int_det``) skip the span stack push and only
charge their duration to the enclosing span, which keeps the cost of the
1.1M ``int_det`` calls in ``feasibility_grid`` low.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)
        self.seen_counts = set()
        self._stack = []
        self._table_bytes = weakref.WeakKeyDictionary()

    # --- wrappers ----------------------------------------------------------

    def span(self, name, fn, on_return=None):
        stack, stat = self._stack, self.stats[name]

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn, on_call=None):
        stack, stat = self._stack, self.stats[name]

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.total += dt
                stat.self += dt
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        return {"stats": {name: [st.calls, st.total, st.self]
                          for name, st in self.stats.items()},
                "counters": dict(self.counters),
                "unique_counts": len(self.seen_counts)}

    # --- installation --------------------------------------------------------

    @staticmethod
    def rebind(original, replacement):
        """Point every weilgram module binding of `original` at `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "weilgram" and not mod_name.startswith("weilgram."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self):
        """Wrap the layer functions.  Call after importing weilgram and
        before the traced phase; it stays installed for the process."""
        from weilgram import bounds, corpus, curves, feasibility, finite_field, gram, tables, zeta

        def wrap(module, attr, make):
            original = getattr(module, attr)
            self.rebind(original, make(original))

        wrap(finite_field, "construct_field",
             lambda f: self.span("finite_field.construct_field", f))
        wrap(tables, "get_table", self._wrap_get_table)
        wrap(curves, "count_points",
             lambda f: self.span("curves.count_points", f, self._on_count))
        wrap(curves, "make_smooth_plane",
             lambda f: self.span("curves.make_smooth_plane", f, self._on_plane))
        for attr in ("l_from_counts", "check_riemann_hypothesis", "infer_genus"):
            wrap(zeta, attr, lambda f, a=attr: self.span(f"zeta.{a}", f))
        wrap(gram, "psd_check", lambda f: self.span("gram.psd_check", f))
        wrap(gram, "int_det", lambda f: self.leaf("gram.int_det", f))
        wrap(bounds, "full_report", lambda f: self.span("bounds.full_report", f))
        wrap(feasibility, "max_n1",
             lambda f: self.span("feasibility.max_n1", f, self._on_max_n1))
        wrap(feasibility, "feasible_counts",
             lambda f: self.counted("feasibility.feasible_counts.calls", f))
        for attr in ("generate_corpus", "evaluate_diagram_record", "evaluate_curve_record"):
            wrap(corpus, attr, lambda f, a=attr: self.span(f"corpus.{a}", f))

        table = tables.FieldTable
        table.mul = self.leaf("tables.mul", table.mul, self._on_mul)
        table.__init__ = self.span("tables.build", table.__init__, self._on_build)
        table.powers = self._track_bytes(table.powers)
        table.sqrt_count = self._track_bytes(table.sqrt_count)

    # --- per-layer counts --------------------------------------------------

    def _on_mul(self, _table, a, b):
        self.counters["tables.mul.elements"] += int(
            np.prod(np.broadcast_shapes(np.shape(a), np.shape(b))))

    def _wrap_get_table(self, get_table):
        counters = self.counters

        def wrapper(spec):
            before = get_table.cache_info()
            result = get_table(spec)
            if get_table.cache_info().misses > before.misses:
                counters["tables.get_table.builds"] += 1
                if before.currsize == before.maxsize:
                    counters["tables.get_table.evictions"] += 1
            else:
                counters["tables.get_table.hits"] += 1
            return result

        wrapper.__wrapped__ = get_table
        return wrapper

    @staticmethod
    def _held_bytes(table) -> int:
        """Bytes of the arrays a FieldTable holds, from their sizes."""
        held = table.digits.nbytes + table.reduction.nbytes + table._pvec.nbytes
        held += sum(a.nbytes for a in table._pow_cache.values())
        if table._sqrt_count is not None:
            held += table._sqrt_count.nbytes
        return held

    def _account_bytes(self, table):
        held = self._held_bytes(table)
        self.counters["tables.bytes_computed"] += held - self._table_bytes.get(table, 0)
        self._table_bytes[table] = held

    def _on_build(self, _result, table, _spec):
        self._account_bytes(table)

    def _track_bytes(self, method):
        def wrapper(table, *args):
            result = method(table, *args)
            self._account_bytes(table)
            return result

        wrapper.__wrapped__ = method
        return wrapper

    def _on_count(self, _n, curve, j, *_args, **_kwargs):
        q = curve.q
        if curve.kind == "smooth_plane":
            charged = q ** (2 * j) + q**j + 1
        elif curve.kind == "projective_line":
            charged = q**j + 1
        else:
            charged = q**j
        self.counters["curves.count_points.elements"] += charged
        self.seen_counts.add((curve, j))

    def _on_plane(self, _model, *_args, **_kwargs):
        self.counters["curves.make_smooth_plane.accepted"] += 1

    def _on_max_n1(self, result, _problem):
        self.counters["feasibility.scanned"] += result.scanned
