"""Spans and counts around the public entry points of the qhopf modules.

Nothing in ``src/`` is touched: ``install`` wraps the public functions and
methods of each module at run time and rebinds every ``qhopf.*`` module
global that referred to the original, so calls made through
``from .fock import check_quasitriangularity`` are seen too.

A span is (name, start, end, parent).  Spans stay in memory while an
operation runs; ``end_op`` folds them into per-operation aggregates
(inclusive time of the outermost call of each name, self time per layer,
call counts).  Self time is a span's duration minus the durations of its
children.  ``ExpPoly`` methods are called tens of thousands of times per
operation, so they are aggregated only: an ``expalg`` call made from inside
``expalg`` is counted but opens no frame of its own, and ``expalg`` frames
are not kept as raw span records.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

_perf = time.perf_counter

# the layers self time is kept for: one per qhopf module
LAYERS = ("cli", "report", "expalg", "hopf", "constraints", "fock")


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [name, layer, start, child, span_idx]
        self.spans = []          # raw (name, start, end, parent_idx) of this op
        self.incl = {}           # name -> inclusive time of outermost calls
        self.depth = {}          # name -> nesting depth of that name
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.products = set()

    # ------------------------------------------------------------- per op
    def begin_op(self):
        self.stack.clear()
        self.spans = []
        self.incl = {}
        self.depth = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.products = set()

    def end_op(self, keep_spans=False):
        """Aggregates of the operation just finished."""
        out = {"incl": dict(self.incl), "self": dict(self.self_time),
               "counts": dict(self.counts),
               "product_distinct": len(self.products)}
        if keep_spans:
            out["spans"] = self.spans
        return out

    # ------------------------------------------------------------ wrapping
    def wrap(self, fn, name, layer, *, hot=False, name_fn=None, before=None):
        """Return ``fn`` wrapped in a span.

        ``hot`` calls open no frame when the caller is already in ``layer``;
        ``name_fn(args, kwargs)`` gives a per-call span name; ``before`` is
        called with the arguments ahead of the span (for work counters).
        """
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tr.counts
            counts[name] = counts.get(name, 0) + 1
            stack = tr.stack
            if hot and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span_name = name if name_fn is None else name_fn(args, kwargs)
            depth = tr.depth
            depth[span_name] = depth.get(span_name, 0) + 1
            if hot:
                idx = -1
            else:
                idx = len(tr.spans)
                parent = stack[-1][4] if stack else -1
                tr.spans.append([span_name, 0.0, 0.0, parent])
            frame = [span_name, layer, 0.0, 0.0, idx]
            stack.append(frame)
            start = frame[2] = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - start
                tr.self_time[layer] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                d = depth[span_name] - 1
                depth[span_name] = d
                if d == 0:
                    tr.incl[span_name] = tr.incl.get(span_name, 0.0) + dur
                if idx >= 0:
                    rec = tr.spans[idx]
                    rec[1] = start
                    rec[2] = end

        return wrapper

    def counter(self, fn, name):
        """Count calls of ``fn`` without opening a span."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.counts[name] = tr.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(modules, original, replacement):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _wrap_class(tracer, cls, layer, prefix, hot=False, special=None):
    special = special or {}
    for attr, raw in list(vars(cls).items()):
        public = not attr.startswith("_") or attr in ("__init__", "__add__", "__radd__",
                                                      "__sub__", "__rsub__", "__neg__",
                                                      "__mul__", "__rmul__",
                                                      "__truediv__", "__pow__",
                                                      "__call__", "__eq__")
        if not public:
            continue
        if isinstance(raw, classmethod):
            fn = raw.__func__
            wrapped = tracer.wrap(fn, f"{prefix}.{fn.__name__}", layer, hot=hot)
            setattr(cls, attr, classmethod(wrapped))
        elif isinstance(raw, staticmethod):
            fn = raw.__func__
            setattr(cls, attr, staticmethod(
                tracer.wrap(fn, f"{prefix}.{fn.__name__}", layer, hot=hot)))
        elif inspect.isfunction(raw):
            kwargs = special.get(raw.__name__, {})
            setattr(cls, attr, tracer.wrap(raw, f"{prefix}.{raw.__name__}", layer,
                                           hot=hot, **kwargs))


def _terms_key(x):
    """Operand key: exponents rounded to 1e-9 (the program merges exponents
    closer than that) and coefficients to 9 significant digits, so operands
    equal up to floating-point rounding give one key."""
    def mu_key(mu):
        return (round(mu.real, 9), round(mu.imag, 9))

    def c_key(c):
        return (float(f"{c.real:.9g}"), float(f"{c.imag:.9g}"))

    return frozenset(
        (rs, frozenset((tuple((mu_key(mu), k) for mu, k in key), c_key(c))
                       for key, c in poly.terms.items()))
        for rs, poly in x.terms.items())


class _JsonShim(types.ModuleType):
    """Stand-in for the ``json`` module inside ``qhopf.cli`` whose ``dump``
    (the block dump write) is a span; everything else is the real module."""

    def __init__(self, real, dump):
        super().__init__("json")
        self._real = real
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer):
    """Wrap the public entry points of every qhopf module.  Call once,
    after ``import qhopf.cli``."""
    import numpy as np

    from qhopf import cli, constraints, expalg, fock, hopf, report

    modules = [m for name, m in sys.modules.items()
               if name == "qhopf" or name.startswith("qhopf.")]

    # cli: main, named by subcommand; the dump write inside it
    def main_name(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        sub = argv[0] if argv else "none"
        return f"cli.main.{sub}"

    new_main = tracer.wrap(cli.main, "cli.main", "cli", name_fn=main_name)
    _rebind(modules, cli.main, new_main)
    cli.json = _JsonShim(json, tracer.wrap(json.dump, "cli.dump_write", "cli"))

    # report: the check-report API
    _wrap_class(tracer, report.CheckReport, "report", "report.CheckReport")

    # expalg: every ExpPoly operation, aggregated
    _wrap_class(tracer, expalg.ExpPoly, "expalg", "expalg.ExpPoly", hot=True)
    for name in ("antidifference", "combine"):
        orig = getattr(expalg, name)
        _rebind(modules, orig, tracer.wrap(orig, f"expalg.{name}", "expalg", hot=True))

    # hopf: module functions and the algebra's public methods
    for name in hopf.__all__:
        obj = getattr(hopf, name)
        if inspect.isfunction(obj):
            _rebind(modules, obj, tracer.wrap(obj, f"hopf.{name}", "hopf"))

    def note_product(args, kwargs):
        tracer.products.add((_terms_key(args[1]), _terms_key(args[2])))

    _wrap_class(tracer, hopf.HopfOscillator, "hopf", "hopf.HopfOscillator",
                special={"product": {"before": note_product}})

    # constraints
    for name in constraints.__all__:
        obj = getattr(constraints, name)
        if inspect.isfunction(obj):
            _rebind(modules, obj, tracer.wrap(obj, f"constraints.{name}", "constraints"))

    # fock: module functions (checks named by their sector cap) and classes
    def by_sector(base):
        def name_fn(args, kwargs):
            m = args[1] if len(args) > 1 else kwargs.get("m_max")
            return f"{base}.M{m}"
        return name_fn

    for name in fock.__all__:
        obj = getattr(fock, name)
        if inspect.isfunction(obj):
            name_fn = None
            if name == "check_quasitriangularity":
                name_fn = by_sector("fock.qt")
            elif name.startswith("check_yang_baxter"):
                name_fn = by_sector("fock.ybe")
            _rebind(modules, obj, tracer.wrap(obj, f"fock.{name}", "fock", name_fn=name_fn))
    _wrap_class(tracer, fock.FockWindow, "fock", "fock.FockWindow")
    _wrap_class(tracer, fock.SectorOperator, "fock", "fock.SectorOperator")

    # dense inverses anywhere in the process (only fock takes any)
    np.linalg.inv = tracer.counter(np.linalg.inv, "numpy.linalg.inv")


# ------------------------------------------------------------ per-layer view
def layer_metrics(agg):
    """Per-layer numbers of one operation from its aggregates."""
    incl, counts = agg["incl"], agg["counts"]

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    out = {
        "report.emit_s": t("report.CheckReport.to_json", "report.CheckReport.summary_lines"),
        "expalg.polys_built": counts.get("expalg.ExpPoly.__init__", 0),
        "expalg.mul_calls": counts.get("expalg.ExpPoly.__mul__", 0),
        "expalg.substitute_calls": counts.get("expalg.ExpPoly.substitute", 0),
        "expalg.evaluate_calls": counts.get("expalg.ExpPoly.evaluate", 0),
        "expalg.self_s": agg["self"]["expalg"],
        "hopf.check_axioms_s": t("hopf.HopfOscillator.check_axioms"),
        "hopf.tensor_product_s": t("hopf.HopfOscillator.tensor_product"),
        "hopf.coproduct_on_leg_s": t("hopf.HopfOscillator.coproduct_on_leg"),
        "hopf.product_calls": counts.get("hopf.HopfOscillator.product", 0),
        "hopf.product_distinct": agg["product_distinct"],
        "constraints.verify_s": t("constraints.verify_ci_conditions",
                                  "constraints.verify_g_recursion"),
        "constraints.param_map_inverse_s": t("constraints.param_map_inverse"),
        "fock.qt_s.M8": t("fock.qt.M8"),
        "fock.qt_s.M10": t("fock.qt.M10"),
        "fock.qt_s.M12": t("fock.qt.M12"),
        "fock.ybe_s.M12": t("fock.ybe.M12"),
        "fock.represent_tensor_s": t("fock.represent_tensor"),
        "fock.rmatrix_build_s": t("fock.build_rmatrix", "fock.build_rmatrix_oh_singh"),
        "fock.dense_inverse_calls": counts.get("numpy.linalg.inv", 0),
        "fock.dump_s": t("fock.SectorOperator.to_payload", "cli.dump_write"),
    }
    for sub in SUBCOMMANDS:
        out[f"cli.main_s.{sub}"] = t(f"cli.main.{sub}")
    return out


SUBCOMMANDS = ("classify", "verify-hopf", "verify-rmatrix", "tabulate", "convert-params")
COUNT_METRICS = ("expalg.polys_built", "expalg.mul_calls", "expalg.substitute_calls",
                 "expalg.evaluate_calls", "hopf.product_calls", "hopf.product_distinct",
                 "fock.dense_inverse_calls")
