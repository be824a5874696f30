"""Spans around folichar's public functions, installed from outside.

``install(tracer)`` replaces each traced function by a wrapper wherever the
name is bound: in its defining module, in every ``from .x import f`` copy
inside folichar, and in this benchmark's own modules.  Methods are replaced
in the class, aliases such as ``__rmul__ = __mul__`` included.

A span is ``[name, start, end, parent index, query id]``; spans stay in the
tracer's list until the run ends.  ``MonomialOrder.key`` is only counted:
it runs hundreds of thousands of times per query and its metric is a count.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name); "Cls.meth" patches a method
TARGETS = [
    ("folichar.ideals", "buchberger", "ideals.buchberger"),
    ("folichar.ideals", "_interreduce", "ideals._interreduce"),
    ("folichar.ideals", "reduce_poly", "ideals.reduce_poly"),
    ("folichar.ideals", "normal_form", "ideals.normal_form"),
    ("folichar.ideals", "radical_membership", "ideals.radical_membership"),
    ("folichar.ideals", "eliminate", "ideals.eliminate"),
    ("folichar.ideals", "rational_points", "ideals.rational_points"),
    ("folichar.ideals", "Ideal.basis", "ideals.basis"),
    ("folichar.polynomials", "MultiPoly.__mul__", "polynomials.mul"),
    ("folichar.scalars", "NFElement.__add__", "scalars.nf_arith"),
    ("folichar.scalars", "NFElement.__sub__", "scalars.nf_arith"),
    ("folichar.scalars", "NFElement.__rsub__", "scalars.nf_arith"),
    ("folichar.scalars", "NFElement.__mul__", "scalars.nf_arith"),
    ("folichar.scalars", "NFElement.inverse", "scalars.nf_arith"),
    ("folichar.scalars", "upoly_rational_roots", "scalars.upoly_rational_roots"),
    ("folichar.scalars", "make_number_field", "scalars.make_number_field"),
    ("folichar.foliations", "darboux_search", "foliations.darboux_search"),
    ("folichar.foliations", "classify_ch_subvariety", "foliations.classify_ch_subvariety"),
    ("folichar.foliations", "ch_singular_locus", "foliations.ch_singular_locus"),
    ("folichar.foliations", "singular_scheme", "foliations.singular_scheme"),
    ("folichar.singularities", "jacobian_eigendata", "singularities.jacobian_eigendata"),
    ("folichar.parser", "parse_input", "parser.parse_input"),
    ("folichar.reports", "Report.json_text", "reports.json_text"),
    ("folichar.forms", "is_integrable", "forms.is_integrable"),
    ("folichar.weyl", "principal_symbol", "weyl.principal_symbol"),
    ("folichar.cli", "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.qid = -1

    def wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(parent, result)
            return result

        return traced

    # -- hooks for the ratio metrics ------------------------------------------

    def _after_reduce(self, parent, result):
        # reductions of S-pairs: called by buchberger itself, not by the
        # final interreduction or by normal_form
        if parent >= 0 and self.spans[parent][0] == "ideals.buchberger":
            self.counts["spair_reductions"] += 1
            if result.is_zero():
                self.counts["spair_zero"] += 1

    def _before_basis(self, args, kwargs):
        from folichar.polynomials import GREVLEX

        ideal = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order", GREVLEX)
        self.counts["basis_calls"] += 1
        if ideal.has_cached_basis(order):
            self.counts["basis_hits"] += 1


def _rebind(orig, new):
    """Replace every module-level binding of ``orig`` by ``new``."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith(("folichar", "perfbench")) or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tracer):
    """Wrap every target; returns nothing, the process keeps the wrappers."""
    for modname, attr, name in TARGETS:
        mod = importlib.import_module(modname)
        before = tracer._before_basis if name == "ideals.basis" else None
        after = tracer._after_reduce if name == "ideals.reduce_poly" else None
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            new = tracer.wrap(orig, name, before, after)
            for key, value in list(vars(cls).items()):
                if value is orig:
                    setattr(cls, key, new)
        else:
            orig = getattr(mod, attr)
            _rebind(orig, tracer.wrap(orig, name, before, after))

    from folichar.polynomials import MonomialOrder

    key = MonomialOrder.key
    counts = tracer.counts

    @functools.wraps(key)
    def counted_key(self, exp):
        counts["order_key"] += 1
        return key(self, exp)

    MonomialOrder.key = counted_key


def summarize(spans):
    """Per span name: calls, total and self seconds; calls per parent name.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    names = {}
    edges = Counter()
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        row = names.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - child[i]
        edges[(spans[parent][0] if parent >= 0 else "", name)] += 1
    return names, edges
